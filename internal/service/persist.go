package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"regcluster/internal/core"
	"regcluster/internal/faultinject"
	"regcluster/internal/matrix"
	"regcluster/internal/report"
)

// Durable layout under Config.DataDir:
//
//	datasets/<id>.tsv    canonical TSV of a registered matrix (content-addressed,
//	                     so every file is self-verifying against its name)
//	datasets/<id>.json   upload metadata (name, time, imputed cells)
//	results/<key>.json   one settled result per cache key (clusters + stats)
//	journal.wal          append-only job journal (see journal.go)
//
// Every file is written atomically: the bytes go to a tmp file in the target
// directory, are fsynced, and the tmp is renamed over the destination (with a
// directory fsync), so a crash can never leave a half-written dataset or
// result — only a stale tmp file, which boot sweeps away.
const (
	datasetsDirName = "datasets"
	resultsDirName  = "results"
	journalFileName = "journal.wal"
	tmpPrefix       = ".tmp-"
)

// store is the durable side of one Server: dataset and result files under a
// data directory. All methods are safe for concurrent use (atomic writes
// never collide: tmp names are unique and renames are atomic).
type store struct {
	dir  string
	logf func(format string, args ...any)
}

func openStore(dir string, logf func(string, ...any)) (*store, error) {
	for _, d := range []string{dir, filepath.Join(dir, datasetsDirName), filepath.Join(dir, resultsDirName)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("service: create data dir: %w", err)
		}
	}
	s := &store{dir: dir, logf: logf}
	s.sweepTmp()
	return s, nil
}

func (s *store) journalPath() string { return filepath.Join(s.dir, journalFileName) }

// sweepTmp removes tmp files a crash may have left behind mid-write.
func (s *store) sweepTmp() {
	for _, sub := range []string{s.dir, filepath.Join(s.dir, datasetsDirName), filepath.Join(s.dir, resultsDirName)} {
		entries, err := os.ReadDir(sub)
		if err != nil {
			continue
		}
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), tmpPrefix) {
				os.Remove(filepath.Join(sub, e.Name()))
			}
		}
	}
}

// writeFileAtomic durably replaces path with data: tmp file in the same
// directory, write, fsync, rename, fsync directory.
func writeFileAtomic(path string, data []byte) error {
	if err := faultinject.Hook("persist.write"); err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, tmpPrefix+"*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a preceding rename survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// datasetMeta is the sidecar JSON of one persisted dataset.
type datasetMeta struct {
	Name         string    `json:"name"`
	UploadedAt   time.Time `json:"uploaded_at"`
	ImputedCells int       `json:"imputed_cells"`
}

func (s *store) datasetPath(id, ext string) string {
	return filepath.Join(s.dir, datasetsDirName, id+ext)
}

// saveDataset persists a registered dataset: canonical TSV plus metadata.
func (s *store) saveDataset(ds *Dataset) error {
	if err := faultinject.Hook("persist.dataset"); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := ds.Matrix().WriteTSV(&buf); err != nil {
		return err
	}
	if err := writeFileAtomic(s.datasetPath(ds.ID, ".tsv"), buf.Bytes()); err != nil {
		return err
	}
	meta, err := json.Marshal(datasetMeta{Name: ds.Name, UploadedAt: ds.UploadedAt, ImputedCells: ds.ImputedCells})
	if err != nil {
		return err
	}
	return writeFileAtomic(s.datasetPath(ds.ID, ".json"), meta)
}

func (s *store) deleteDataset(id string) {
	os.Remove(s.datasetPath(id, ".tsv"))
	os.Remove(s.datasetPath(id, ".json"))
}

// loadDatasets reads every persisted dataset, verifying each file against its
// content-addressed name; corrupt or mismatched files are skipped with a
// warning, never fatal — recovery prefers a partial registry over no boot.
func (s *store) loadDatasets() []*Dataset {
	dir := filepath.Join(s.dir, datasetsDirName)
	entries, err := os.ReadDir(dir)
	if err != nil {
		s.logf("service: read %s: %v; booting with an empty registry", dir, err)
		return nil
	}
	var out []*Dataset
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".tsv") || strings.HasPrefix(name, tmpPrefix) {
			continue
		}
		id := strings.TrimSuffix(name, ".tsv")
		m, err := matrix.ReadTSVFile(filepath.Join(dir, name))
		if err != nil {
			s.logf("service: dataset %s unreadable (%v); skipping", id, err)
			continue
		}
		m.FillNaN() // persisted matrices are already imputed; normalize anyway
		if got := m.Hash(); got != id {
			s.logf("service: dataset file %s hashes to %s; corrupt, skipping", id, got)
			continue
		}
		meta := datasetMeta{Name: "dataset-" + id[:12], UploadedAt: time.Now().UTC()}
		if raw, err := os.ReadFile(s.datasetPath(id, ".json")); err == nil {
			if err := json.Unmarshal(raw, &meta); err != nil {
				s.logf("service: dataset %s metadata corrupt (%v); using defaults", id, err)
			}
		}
		out = append(out, newDataset(m, meta.Name, meta.ImputedCells, meta.UploadedAt))
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].UploadedAt.Equal(out[j].UploadedAt) {
			return out[i].UploadedAt.Before(out[j].UploadedAt)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// resultFile is the persisted form of one cached mining outcome.
type resultFile struct {
	Clusters []report.NamedCluster `json:"clusters"`
	Stats    core.Stats            `json:"stats"`
	Subtrees []core.Stats          `json:"subtrees,omitempty"`
}

func (s *store) resultPath(key string) string {
	return filepath.Join(s.dir, resultsDirName, key+".json")
}

// saveResult persists one settled result under its cache key.
func (s *store) saveResult(key string, res cachedResult) error {
	if err := faultinject.Hook("persist.result"); err != nil {
		return err
	}
	clusters := res.clusters
	if clusters == nil {
		clusters = []report.NamedCluster{}
	}
	data, err := json.Marshal(resultFile{Clusters: clusters, Stats: res.stats, Subtrees: res.subtrees})
	if err != nil {
		return err
	}
	return writeFileAtomic(s.resultPath(key), data)
}

func (s *store) deleteResult(key string) { os.Remove(s.resultPath(key)) }

// storedResult is one recovered cache entry.
type storedResult struct {
	key string
	res cachedResult
}

// loadResults restores persisted results oldest-first (so re-inserting them
// in order rebuilds a sensible LRU recency). When more results exist than the
// cache admits, the oldest overflow files are deleted.
func (s *store) loadResults(max int) []storedResult {
	dir := filepath.Join(s.dir, resultsDirName)
	entries, err := os.ReadDir(dir)
	if err != nil {
		s.logf("service: read %s: %v; booting with an empty cache", dir, err)
		return nil
	}
	type fileInfo struct {
		key string
		mod time.Time
	}
	var files []fileInfo
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".json") || strings.HasPrefix(name, tmpPrefix) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		files = append(files, fileInfo{key: strings.TrimSuffix(name, ".json"), mod: info.ModTime()})
	}
	sort.Slice(files, func(i, j int) bool {
		if !files[i].mod.Equal(files[j].mod) {
			return files[i].mod.Before(files[j].mod)
		}
		return files[i].key < files[j].key
	})
	if max > 0 && len(files) > max {
		for _, f := range files[:len(files)-max] {
			s.deleteResult(f.key)
		}
		files = files[len(files)-max:]
	}
	var out []storedResult
	for _, f := range files {
		raw, err := os.ReadFile(s.resultPath(f.key))
		if err != nil {
			s.logf("service: result %s unreadable (%v); skipping", f.key, err)
			continue
		}
		var rf resultFile
		if err := json.Unmarshal(raw, &rf); err != nil {
			s.logf("service: result %s corrupt (%v); deleting", f.key, err)
			s.deleteResult(f.key)
			continue
		}
		out = append(out, storedResult{key: f.key, res: cachedResult{clusters: rf.Clusters, stats: rf.Stats, subtrees: rf.Subtrees}})
	}
	return out
}
