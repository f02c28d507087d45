package service

// Sharded spill directory and its persistent in-memory index.
//
// The spill layout shards table files by hash prefix:
//
//	<table-dir>/ab/cdef0123456789.hnowtbl
//
// where "abcdef0123456789" is the 16-hex-digit locator hash of the
// network key (the first two digits name the shard subdirectory). Files
// at the top level of <table-dir> are not read.
//
// The index is the startup-built map from network key to spill file: the
// one place the service does ReadDir and header I/O. After startup every
// "which persisted network covers this set?" question — the hot
// /v1/compare miss path — is answered from memory; the index is
// maintained on every spill write, and a file that fails to load is
// dropped from it so a corrupt spill cannot be rescanned per request.

import (
	"crypto/sha256"
	"encoding/hex"
	"expvar"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/exact"
	"repro/internal/model"
)

var (
	// expTableDirScans counts full spill-directory scans (startup index
	// builds). It must not move on the request path: the zero-I/O covering
	// lookup acceptance is asserted against this counter.
	expTableDirScans = expvar.NewInt("hnowd.table.dir_scans")
	// expTableHeaderReads counts table-file header reads; like dir_scans,
	// these happen only while (re)building the index.
	expTableHeaderReads = expvar.NewInt("hnowd.table.header_reads")
	// expTableIndexSize gauges the number of networks the spill index
	// knows about (last started cache wins when several run in-process).
	expTableIndexSize = expvar.NewInt("hnowd.table.index_size")
)

const tableFileExt = ".hnowtbl"

// spillRel returns the dir-relative sharded path for a network key: the
// key hashed to a 16-hex locator, split shard/file. The name is only a
// locator; loads re-derive the key from the file header before trusting
// a file.
func spillRel(key string) string {
	sum := sha256.Sum256([]byte(key))
	h := hex.EncodeToString(sum[:8])
	return filepath.Join(h[:2], h[2:]+tableFileExt)
}

// TableFileName returns the spill path the service expects for this
// table, relative to its -table-dir (note it contains the shard
// subdirectory, e.g. "ab/cdef0123456789.hnowtbl"). cmd/hnowtable uses it
// so CLI-built tables are found by a daemon pointed at the same
// directory; SpillPath additionally creates the shard subdirectory.
func TableFileName(t *exact.Table) string {
	return spillRel(networkKey(t.Latency(), t.Types(), t.Counts()))
}

// SpillPath returns the absolute spill path for the table inside dir,
// creating the shard subdirectory so the caller can write the file
// directly (e.g. with exact.WriteTableFile).
func SpillPath(dir string, t *exact.Table) (string, error) {
	path := filepath.Join(dir, TableFileName(t))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", err
	}
	return path, nil
}

// spillIndex is the in-memory catalogue of every persisted table: network
// key → (validated header, file path). Built once at startup from a full
// directory scan, maintained on writes and load failures, it answers
// exact-key and covering queries without touching disk.
type spillIndex struct {
	mu      sync.RWMutex
	entries map[string]spillEntry
}

type spillEntry struct {
	header *exact.TableHeader
	path   string
}

// newSpillIndex scans dir's shard subdirectories and builds the index.
// Unreadable or invalid files — among them any file of an older table
// format version — are skipped: they are counted as disk errors, a later
// load would reject them anyway, and a rebuild overwrites them.
func newSpillIndex(dir string) *spillIndex {
	ix := &spillIndex{entries: map[string]spillEntry{}}
	expTableDirScans.Add(1)
	top, err := os.ReadDir(dir)
	if err != nil {
		return ix
	}
	for _, e := range top {
		if !e.IsDir() {
			continue
		}
		sub, err := os.ReadDir(filepath.Join(dir, e.Name()))
		if err != nil {
			continue
		}
		for _, f := range sub {
			if !f.IsDir() {
				ix.indexFile(filepath.Join(dir, e.Name(), f.Name()))
			}
		}
	}
	expTableIndexSize.Set(int64(len(ix.entries)))
	return ix
}

func (ix *spillIndex) indexFile(path string) {
	if filepath.Ext(path) != tableFileExt {
		return
	}
	expTableHeaderReads.Add(1)
	h, err := exact.ReadTableHeaderFile(path)
	if err != nil {
		expTableDiskErrors.Add(1)
		return
	}
	key := networkKey(h.Latency, h.Types, h.Counts)
	if _, dup := ix.entries[key]; !dup {
		ix.entries[key] = spillEntry{header: h, path: path}
	}
}

// pathFor returns the spill file for an exact network key ("" = none).
func (ix *spillIndex) pathFor(key string) string {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.entries[key].path
}

// coveringKeys lists the keys of every indexed network whose header
// covers the set — pure in-memory Covers checks, zero disk I/O. The
// headers were validated at index time but are still only routing hints:
// the keyed load fully re-validates a file before anything is trusted.
func (ix *spillIndex) coveringKeys(set *model.MulticastSet) []string {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var keys []string
	for key, e := range ix.entries {
		if e.header.Covers(set) {
			keys = append(keys, key)
		}
	}
	return keys
}

// put records a freshly spilled table.
func (ix *spillIndex) put(key, path string, h *exact.TableHeader) {
	ix.mu.Lock()
	ix.entries[key] = spillEntry{header: h, path: path}
	expTableIndexSize.Set(int64(len(ix.entries)))
	ix.mu.Unlock()
}

// remove drops a key whose file turned out missing or invalid, so the
// request path stops routing to it.
func (ix *spillIndex) remove(key string) {
	ix.mu.Lock()
	if _, ok := ix.entries[key]; ok {
		delete(ix.entries, key)
		expTableIndexSize.Set(int64(len(ix.entries)))
	}
	ix.mu.Unlock()
}
