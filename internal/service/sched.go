package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"regcluster/internal/faultinject"
)

// Weighted-fair mining-slot scheduler. It replaces the FIFO slot semaphore:
// instead of one global queue a heavy tenant can saturate, every tenant has
// its own bounded FIFO, and free slots are granted by stride scheduling —
// strict priority across classes (high before normal before low), and
// within a class the tenant with the smallest virtual "pass" wins, advancing
// its pass by strideScale/weight per grant. A weight-2 tenant therefore
// receives twice the grants of a weight-1 tenant under contention, and an
// idle tenant's unused share is redistributed instead of banked (its pass is
// re-synchronized when it becomes active again).
//
// Overload degrades in two honest steps rather than by silent queue growth:
// per-tenant queue bounds reject at submit time with 429 + Retry-After, and
// a global shed watermark evicts already-queued work from the lowest
// priority class first (each eviction settles its job as cancelled-by-shed
// and is journaled, so a restart does not resurrect it).

// errShedOverload is returned by acquire when the load shedder evicted the
// queued job; the manager settles it as cancelled-by-shed.
var errShedOverload = errors.New("service: shed by overload")

// strideScale is the stride numerator: pass advances by strideScale/weight
// per grant, so larger weights advance slower and win more often.
const strideScale = 1 << 16

// schedEntry is one queued slot request.
type schedEntry struct {
	job   *Job
	tq    *tenantQueue
	grant chan struct{} // closed when a slot is granted
	shed  chan struct{} // closed when the overload shedder evicts the entry
	enq   time.Time
}

// tenantQueue is the scheduler-side state of one tenant.
type tenantQueue struct {
	tn      *tenant
	pass    uint64 // stride virtual time; smallest active pass is granted next
	q       []*schedEntry
	pending int // reservations made at admission, not yet enqueued by run()
	running int // entries currently holding a slot
}

func (tq *tenantQueue) stride() uint64 { return strideScale / uint64(tq.tn.weight) }

// occupancy is the tenant's total claim on the scheduler: queued entries,
// reservations in flight between submit and run, and held slots.
func (tq *tenantQueue) occupancy() int { return len(tq.q) + tq.pending + tq.running }

// scheduler owns the slot pool and the per-tenant queues. All state is
// guarded by mu; grants and sheds are delivered by closing entry channels
// under the lock, so observers never see a half-granted entry.
type scheduler struct {
	mu      sync.Mutex
	slots   int
	inUse   int
	tenants map[string]*tenantQueue

	queuedTotal int
	pendingTot  int

	// Shed watermark state machine: "ok" until queued work crosses shedHigh,
	// then "shedding" until it drains to shedLow. While shedding, admission
	// refuses work that would itself be shed (lowest-class), and enqueue
	// evicts from the lowest class until the total is back at the watermark.
	shedHigh int // <=0 disables shedding
	shedLow  int
	shedding bool

	drain   drainEstimator
	metrics *Metrics
	now     func() time.Time
}

func newScheduler(slots, shedWatermark int, metrics *Metrics) *scheduler {
	if slots < 1 {
		slots = 1
	}
	s := &scheduler{
		slots:    slots,
		tenants:  make(map[string]*tenantQueue),
		shedHigh: shedWatermark,
		shedLow:  shedWatermark / 2,
		metrics:  metrics,
		now:      time.Now,
	}
	return s
}

func (s *scheduler) tq(tn *tenant) *tenantQueue {
	tq, ok := s.tenants[tn.id]
	if !ok {
		tq = &tenantQueue{tn: tn}
		s.tenants[tn.id] = tq
	}
	return tq
}

// lowestQueuedClassLocked returns the lowest priority class with queued
// entries, or numPriorities when nothing is queued.
func (s *scheduler) lowestQueuedClassLocked() int {
	lowest := numPriorities
	for _, tq := range s.tenants {
		if len(tq.q) > 0 && tq.tn.priority < lowest {
			lowest = tq.tn.priority
		}
	}
	return lowest
}

// lowestWaitingClassLocked is lowestQueuedClassLocked counting admitted
// reservations too: a submission is acknowledged before its job goroutine
// enqueues, and admission must already see it as sheddable work, or a
// higher-priority arrival in that window is rejected instead of displacing it.
func (s *scheduler) lowestWaitingClassLocked() int {
	lowest := numPriorities
	for _, tq := range s.tenants {
		if (len(tq.q) > 0 || tq.pending > 0) && tq.tn.priority < lowest {
			lowest = tq.tn.priority
		}
	}
	return lowest
}

// reserve claims admission capacity for n upcoming enqueues by tn. It
// enforces the per-tenant queue bound, the concurrent-job quota, and — while
// the shedder is active — refuses work that would immediately be shed.
// forced reservations (boot-time recovery) bypass every bound: journaled
// work is never re-rejected. The returned error is an *admissionError.
func (s *scheduler) reserve(tn *tenant, n int, forced bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	tq := s.tq(tn)
	if !forced {
		if tn.maxQueued > 0 && len(tq.q)+tq.pending+n > tn.maxQueued {
			return &admissionError{
				status:     429,
				retryAfter: s.retryAfterLocked(len(tq.q) + tq.pending),
				msg:        fmt.Sprintf("tenant %s: queue full (%d queued, limit %d)", tn.id, len(tq.q)+tq.pending, tn.maxQueued),
			}
		}
		if tn.maxActive > 0 && tq.occupancy()+n > tn.maxActive {
			return &admissionError{
				status:     429,
				retryAfter: s.retryAfterLocked(tq.occupancy()),
				msg:        fmt.Sprintf("tenant %s: concurrent-job quota reached (%d active, limit %d)", tn.id, tq.occupancy(), tn.maxActive),
			}
		}
		if s.shedding && tn.priority <= s.lowestWaitingClassLocked() {
			return &admissionError{
				status:     429,
				retryAfter: s.retryAfterLocked(s.queuedTotal),
				msg:        fmt.Sprintf("server overloaded: shedding %s-priority work", priorityNames[tn.priority]),
			}
		}
		if s.shedHigh > 0 && s.queuedTotal+s.pendingTot+n > s.shedHigh && tn.priority <= s.lowestWaitingClassLocked() {
			// The global watermark is reached and this work does not outrank
			// anything sheddable: reject it now instead of queueing it only
			// to evict it.
			return &admissionError{
				status:     429,
				retryAfter: s.retryAfterLocked(s.queuedTotal),
				msg:        fmt.Sprintf("server overloaded: %d jobs queued (watermark %d)", s.queuedTotal+s.pendingTot, s.shedHigh),
			}
		}
	}
	tq.pending += n
	s.pendingTot += n
	return nil
}

// unreserve returns unused reservations (a submission that settled from the
// result cache without ever queueing).
func (s *scheduler) unreserve(tn *tenant, n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	tq := s.tq(tn)
	tq.pending -= n
	s.pendingTot -= n
	if tq.pending < 0 {
		tq.pending = 0
	}
	if s.pendingTot < 0 {
		s.pendingTot = 0
	}
}

// enqueue converts one reservation into a queued entry and dispatches. The
// entry's tenant re-synchronizes its stride pass against the active minimum
// of its class when it transitions from idle, so sitting out never banks
// scheduling credit.
func (s *scheduler) enqueue(j *Job) *schedEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	tq := s.tq(j.tn)
	if tq.pending > 0 {
		tq.pending--
		s.pendingTot--
	}
	if len(tq.q) == 0 && tq.running == 0 {
		if min, ok := s.minActivePassLocked(j.tn.priority, tq); ok && tq.pass < min {
			tq.pass = min
		}
	}
	e := &schedEntry{
		job:   j,
		tq:    tq,
		grant: make(chan struct{}),
		shed:  make(chan struct{}),
		enq:   s.now(),
	}
	tq.q = append(tq.q, e)
	s.queuedTotal++
	s.maybeShedLocked()
	s.dispatchLocked()
	return e
}

// minActivePassLocked returns the smallest pass among active tenants (queued
// or running work) of the given class, excluding self.
func (s *scheduler) minActivePassLocked(class int, self *tenantQueue) (uint64, bool) {
	var min uint64
	found := false
	for _, tq := range s.tenants {
		if tq == self || tq.tn.priority != class || (len(tq.q) == 0 && tq.running == 0) {
			continue
		}
		if !found || tq.pass < min {
			min, found = tq.pass, true
		}
	}
	return min, found
}

// acquire blocks until the job is granted a slot, shed, or cancelled. A nil
// return means the caller holds a slot and must release(j) when done.
func (s *scheduler) acquire(ctx context.Context, j *Job) error {
	e := s.enqueue(j)
	select {
	case <-e.grant:
		return nil
	case <-e.shed:
		return errShedOverload
	case <-ctx.Done():
	}
	if s.removeQueued(e) {
		return ctx.Err()
	}
	// Lost the race: a grant or shed landed while the cancellation was being
	// processed. A granted slot must go back to the pool.
	select {
	case <-e.grant:
		s.release(j)
	default:
	}
	return ctx.Err()
}

// removeQueued withdraws a still-queued entry (cancel-while-queued); false
// means the entry had already been granted or shed.
func (s *scheduler) removeQueued(e *schedEntry) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, cand := range e.tq.q {
		if cand == e {
			e.tq.q = append(e.tq.q[:i], e.tq.q[i+1:]...)
			s.queuedTotal--
			s.exitShedLocked()
			return true
		}
	}
	return false
}

// release returns the slot held by j and dispatches the next entry.
func (s *scheduler) release(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	tq := s.tq(j.tn)
	if tq.running > 0 {
		tq.running--
	}
	if s.inUse > 0 {
		s.inUse--
	}
	s.drain.note(s.now())
	s.exitShedLocked()
	s.dispatchLocked()
}

// dispatchLocked grants free slots to the next entries in weighted-fair
// order: strict priority across classes, smallest stride pass within a
// class, FIFO within a tenant, tenant ID as the deterministic tie-break.
func (s *scheduler) dispatchLocked() {
	for s.inUse < s.slots {
		e := s.nextLocked()
		if e == nil {
			return
		}
		s.inUse++
		e.tq.running++
		e.tq.pass += e.tq.stride()
		close(e.grant)
	}
}

func (s *scheduler) nextLocked() *schedEntry {
	for class := PriorityHigh; class >= PriorityLow; class-- {
		var best *tenantQueue
		for _, tq := range s.tenants {
			if tq.tn.priority != class || len(tq.q) == 0 {
				continue
			}
			if best == nil || tq.pass < best.pass || (tq.pass == best.pass && tq.tn.id < best.tn.id) {
				best = tq
			}
		}
		if best != nil {
			e := best.q[0]
			best.q = best.q[1:]
			s.queuedTotal--
			s.exitShedLocked()
			return e
		}
	}
	return nil
}

// maybeShedLocked runs the shed half of the watermark state machine: once
// queued work crosses shedHigh the scheduler enters shedding and evicts the
// newest entries of the lowest priority class until the total is back at the
// watermark. Evicting newest-first preserves the oldest admitted work (it
// has waited longest and is closest to a slot).
func (s *scheduler) maybeShedLocked() {
	if s.shedHigh <= 0 || s.queuedTotal <= s.shedHigh {
		return
	}
	s.shedding = true
	for s.queuedTotal > s.shedHigh {
		victim := s.shedVictimLocked()
		if victim == nil {
			return
		}
		_ = faultinject.Hook("sched.shed")
		tq := victim.tq
		for i, cand := range tq.q {
			if cand == victim {
				tq.q = append(tq.q[:i], tq.q[i+1:]...)
				break
			}
		}
		s.queuedTotal--
		if s.metrics != nil {
			s.metrics.JobsShed.Add(1)
		}
		close(victim.shed)
	}
}

// shedVictimLocked picks the newest queued entry of the lowest non-empty
// priority class (largest-backlog tenant as the tie-break, so shedding also
// rebalances).
func (s *scheduler) shedVictimLocked() *schedEntry {
	class := s.lowestQueuedClassLocked()
	if class >= numPriorities {
		return nil
	}
	var victim *schedEntry
	var from *tenantQueue
	for _, tq := range s.tenants {
		if tq.tn.priority != class || len(tq.q) == 0 {
			continue
		}
		if from == nil || len(tq.q) > len(from.q) ||
			(len(tq.q) == len(from.q) && tq.tn.id < from.tn.id) {
			from = tq
			victim = tq.q[len(tq.q)-1]
		}
	}
	return victim
}

// exitShedLocked is the recovery half of the state machine: shedding ends
// once the queue drains to the low watermark.
func (s *scheduler) exitShedLocked() {
	if s.shedding && s.queuedTotal <= s.shedLow {
		s.shedding = false
	}
}

// retryAfterLocked derives a Retry-After from the observed drain rate: with
// depth entries ahead and the scheduler completing rate jobs per second, the
// backlog clears in ~depth/rate seconds. With no drain history yet the
// estimate falls back to a per-entry constant. Clamped to [1s, 120s].
func (s *scheduler) retryAfterLocked(depth int) time.Duration {
	if depth < 1 {
		depth = 1
	}
	var est time.Duration
	if rate := s.drain.rate(s.now()); rate > 0 {
		est = time.Duration(float64(depth) / rate * float64(time.Second))
	} else {
		est = time.Duration(depth) * 2 * time.Second / time.Duration(s.slots)
	}
	if est < time.Second {
		est = time.Second
	}
	if est > 120*time.Second {
		est = 120 * time.Second
	}
	return est
}

// retryAfter is the exported-to-handlers form of retryAfterLocked.
func (s *scheduler) retryAfter(depth int) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.retryAfterLocked(depth)
}

// saturation is the scheduler's health snapshot for /healthz and /metrics.
type saturation struct {
	queued   int
	running  int
	shedding bool
	byClass  [numPriorities]int
}

func (s *scheduler) saturationSnapshot() saturation {
	s.mu.Lock()
	defer s.mu.Unlock()
	sat := saturation{queued: s.queuedTotal + s.pendingTot, running: s.inUse, shedding: s.shedding}
	for _, tq := range s.tenants {
		sat.byClass[tq.tn.priority] += len(tq.q) + tq.pending
	}
	return sat
}

// gauges returns one tenant's live queue occupancy.
func (s *scheduler) gauges(tn *tenant) tenantGauges {
	s.mu.Lock()
	defer s.mu.Unlock()
	tq, ok := s.tenants[tn.id]
	if !ok {
		return tenantGauges{}
	}
	return tenantGauges{queued: len(tq.q) + tq.pending, running: tq.running}
}

// runningSlots returns the number of slots currently held.
func (s *scheduler) runningSlots() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inUse
}

// drainEstimator tracks recent slot releases in a ring and reports the
// observed drain rate (slot completions per second) over that window.
type drainEstimator struct {
	mu    sync.Mutex
	times [64]time.Time
	n     int // filled entries
	idx   int // next write position
}

func (d *drainEstimator) note(t time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.times[d.idx] = t
	d.idx = (d.idx + 1) % len(d.times)
	if d.n < len(d.times) {
		d.n++
	}
}

// rate returns completions per second over the retained window; 0 when
// fewer than two samples exist (no estimate yet).
func (d *drainEstimator) rate(now time.Time) float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.n < 2 {
		return 0
	}
	oldest := d.times[(d.idx-d.n+len(d.times))%len(d.times)]
	span := now.Sub(oldest)
	if span <= 0 {
		return 0
	}
	return float64(d.n) / span.Seconds()
}
