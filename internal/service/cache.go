package service

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sync"

	"regcluster/internal/core"
	"regcluster/internal/report"
)

// cacheKey derives the result-cache key from the dataset's content hash and
// an explicit field-by-field encoding of the mining parameters. Every Params
// field participates — the ablation switches change only work, not output,
// but keying on them keeps the derivation trivially audit-able, and
// MaxClusters/MaxNodes MUST participate because capped runs return a
// truncated prefix. The worker count deliberately does not: mining output is
// deterministic for any worker count, so a sweep re-submitted with different
// parallelism still hits.
//
// The encoding is total: floats enter by IEEE-754 bit pattern, so the
// function is defined for ANY Params value, non-finite floats included.
// (An earlier version round-tripped Params through json.Marshal under a
// "marshalling cannot fail" comment — but encoding/json rejects NaN/±Inf, so
// a non-finite value that slipped past validation panicked the server here.
// Validate now fences those values at the API boundary; this derivation no
// longer cares either way.)
//
// Adding a field to core.Params without extending this encoding would make
// the cache conflate distinct jobs; TestCacheKeySensitivity pins every field.
func cacheKey(datasetID string, p core.Params) string {
	h := sha256.New()
	h.Write([]byte(datasetID))
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	b := func(v bool) {
		if v {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	u64(uint64(p.MinG))
	u64(uint64(p.MinC))
	f64(p.Gamma)
	f64(p.Epsilon)
	b(p.AbsoluteGamma)
	b(p.CustomGammas != nil)
	u64(uint64(len(p.CustomGammas)))
	for _, v := range p.CustomGammas {
		f64(v)
	}
	u64(uint64(p.MaxClusters))
	u64(uint64(p.MaxNodes))
	b(p.DisableChainLengthPruning)
	b(p.DisableMajorityPruning)
	b(p.DisableDedupPruning)
	b(p.NaiveCandidates)
	return hex.EncodeToString(h.Sum(nil))
}

// cachedResult is one settled mining outcome. subtrees holds the run's
// per-subtree Stats (core.Result.Subtrees); it is nil for resumed runs and
// for results persisted before it existed, which a delta child's Splice
// then declines.
type cachedResult struct {
	clusters []report.NamedCluster
	stats    core.Stats
	subtrees []core.Stats
}

// resultCache is a strict-LRU map from cacheKey to settled results, bounded
// by entry count. Only deterministic outcomes are stored (the job manager
// never caches deadline- or cancel-interrupted runs), so a hit is always
// byte-identical to re-mining.
type resultCache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used; values are *cacheItem
	items map[string]*list.Element
	// onEvict, when set, observes every LRU eviction (not explicit
	// replacements) — the durable server hooks it to delete the evicted
	// entry's result file so disk usage tracks the cache bound.
	onEvict func(key string)
}

type cacheItem struct {
	key string
	res cachedResult
}

func newResultCache(maxEntries int) *resultCache {
	return &resultCache{max: maxEntries, ll: list.New(), items: make(map[string]*list.Element)}
}

// get returns the cached result for key, promoting it to most-recently-used.
func (c *resultCache) get(key string) (cachedResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return cachedResult{}, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheItem).res, true
}

// put stores a settled result, evicting the least-recently-used entry when
// the cache is full. Re-putting an existing key refreshes its recency.
func (c *resultCache) put(key string, res cachedResult) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheItem).res = res
		c.ll.MoveToFront(el)
		return
	}
	for c.ll.Len() >= c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		old := oldest.Value.(*cacheItem).key
		delete(c.items, old)
		if c.onEvict != nil {
			c.onEvict(old)
		}
	}
	c.items[key] = c.ll.PushFront(&cacheItem{key: key, res: res})
}

// len returns the number of cached entries.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
