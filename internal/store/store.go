// Package store is the persistent tier of the service result cache: a
// disk-backed, content-addressed blob store mapping canonical cache keys
// (the canonical-JSON hashes of internal/service) to compressed JSON
// payloads. It exists so computed results survive process restarts and are
// shared across enaserve replicas pointed at the same directory — the
// many-small-deterministic-jobs shape of simulation-driven evaluation
// rewards exactly this kind of reuse.
//
// Guarantees:
//
//   - Writes are atomic: a blob is assembled in a temp file and renamed into
//     place, so readers (including other replicas) never observe a partial
//     entry and concurrent writers of the same key last-write-win a complete
//     blob either way.
//   - Reads are corruption-checked: every blob carries a header with the key
//     it serves and a SHA-256 of the payload; a mismatch (bit rot, truncation,
//     a foreign file) reads as a miss and the offending file is deleted.
//   - The store is size-capped: once the resident bytes exceed the cap, the
//     least-recently-used entries are garbage-collected. LRU order is exact
//     within a process and approximated across restarts by file mtimes
//     (reads bump them best-effort).
//
// Blob format (gzip-compressed): a one-line JSON header
// {"v":1,"key":...,"sha256":...,"len":N} terminated by '\n', followed by the
// raw payload bytes.
package store

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"sync"

	"ena/internal/lru"
	"ena/internal/obs"
)

// DefaultMaxBytes caps the store at 256 MiB when no explicit cap is given.
const DefaultMaxBytes = 256 << 20

// blobVersion bumps when the on-disk format changes; mismatched blobs read
// as misses (and are deleted) rather than being misparsed.
const blobVersion = 1

// header is the first line of every blob.
type header struct {
	V      int    `json:"v"`
	Key    string `json:"key"`
	SHA256 string `json:"sha256"`
	Len    int    `json:"len"`
}

// Store is a disk-backed result store. All methods are safe for concurrent
// use; a nil *Store is a valid no-op store (Get always misses, Put is
// dropped), so callers can thread an optional store without nil checks.
type Store struct {
	dir string

	mu    sync.Mutex
	index *lru.Cache[string, int64] // key -> blob size, bounded by the byte cap

	hits       *obs.Counter
	misses     *obs.Counter
	writes     *obs.Counter
	writeErrs  *obs.Counter
	corrupt    *obs.Counter
	gcEvicted  *obs.Counter
	bytesGauge *obs.Gauge
	entGauge   *obs.Gauge
}

// Open initializes a store rooted at dir (created if absent), rebuilding the
// index from the blobs already on disk — oldest-modified entries enter the
// LRU coldest. maxBytes <= 0 takes DefaultMaxBytes. Metrics land in reg
// under store.* (nil disables them).
func Open(dir string, maxBytes int64, reg *obs.Registry) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty directory")
	}
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	if err := os.MkdirAll(filepath.Join(dir, "tmp"), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:        dir,
		hits:       reg.Counter("store.hits"),
		misses:     reg.Counter("store.misses"),
		writes:     reg.Counter("store.writes"),
		writeErrs:  reg.Counter("store.write_errors"),
		corrupt:    reg.Counter("store.corrupt"),
		gcEvicted:  reg.Counter("store.gc_evictions"),
		bytesGauge: reg.Gauge("store.bytes"),
		entGauge:   reg.Gauge("store.entries"),
	}
	// Past the cap, garbage-collect the least-recently-used blobs.
	s.index = lru.New(maxBytes, func(size int64) int64 { return size }, func(key string, _ int64) {
		os.Remove(s.path(key))
		s.gcEvicted.Inc()
	})
	if err := s.rebuild(); err != nil {
		return nil, err
	}
	return s, nil
}

// rebuild scans the directory and re-indexes every resident blob by reading
// its header (cheap: headers sit at the front of the gzip stream). Files
// that fail to parse are removed — they are either corrupt or foreign.
func (s *Store) rebuild() error {
	type rec struct {
		key   string
		size  int64
		mtime time.Time
	}
	var recs []rec
	shards, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, sh := range shards {
		// tmp holds in-flight writes; jobs is the job journal's namespace
		// (see OpenJournal) — neither contains content-addressed blobs.
		if !sh.IsDir() || sh.Name() == "tmp" || sh.Name() == "jobs" {
			continue
		}
		files, err := os.ReadDir(filepath.Join(s.dir, sh.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			path := filepath.Join(s.dir, sh.Name(), f.Name())
			info, err := f.Info()
			if err != nil {
				continue
			}
			h, err := readHeader(path)
			if err != nil {
				s.corrupt.Inc()
				os.Remove(path)
				continue
			}
			recs = append(recs, rec{key: h.Key, size: info.Size(), mtime: info.ModTime()})
		}
	}
	// Oldest first: they enter the LRU back (coldest), newest end up at the
	// front, so a restarted replica GCs in roughly the same order a
	// continuously-running one would have. Evicting on each insert keeps
	// the newest suffix that fits the cap.
	sort.Slice(recs, func(i, j int) bool { return recs[i].mtime.Before(recs[j].mtime) })
	s.mu.Lock()
	for _, r := range recs {
		if !s.index.Contains(r.key) {
			s.index.Put(r.key, r.size)
		}
	}
	s.publishLocked()
	s.mu.Unlock()
	return nil
}

// path maps a key to its blob location: filenames are the hex SHA-256 of the
// key (keys may contain characters unsuitable for filenames), sharded into
// 256 subdirectories by the first byte to keep directory listings flat.
func (s *Store) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	name := hex.EncodeToString(sum[:])
	return filepath.Join(s.dir, name[:2], name)
}

// Get returns the payload stored for key. A miss — absent, corrupt, or a
// different key hashed to the same file — returns ok == false; corrupt files
// are deleted so the slot heals. The index is consulted first, but an index
// miss still probes the disk: another replica sharing the directory may have
// written the entry after this process indexed it.
func (s *Store) Get(key string) ([]byte, bool) {
	if s == nil {
		return nil, false
	}
	path := s.path(key)
	payload, size, err := readBlob(path, key)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			// Another replica may have GC'd it; heal the index.
			s.dropIndex(key)
		} else {
			s.corrupt.Inc()
			os.Remove(path)
			s.dropIndex(key)
		}
		s.misses.Inc()
		return nil, false
	}
	now := time.Now()
	os.Chtimes(path, now, now) // best-effort cross-restart LRU signal
	s.mu.Lock()
	if _, ok := s.index.Get(key); !ok {
		s.index.Put(key, size)
	}
	s.publishLocked()
	s.mu.Unlock()
	s.hits.Inc()
	return payload, true
}

// Put stores payload under key, atomically replacing any previous blob, and
// garbage-collects past the size cap. Errors are returned for callers that
// care but the store stays consistent regardless.
func (s *Store) Put(key string, payload []byte) error {
	if s == nil {
		return nil
	}
	path := s.path(key)
	size, err := writeBlob(s.dir, path, key, payload)
	if err != nil {
		s.writeErrs.Inc()
		return err
	}
	s.mu.Lock()
	s.index.Put(key, size)
	s.publishLocked()
	s.mu.Unlock()
	s.writes.Inc()
	return nil
}

// dropIndex removes key from the in-memory index (the file is already gone).
func (s *Store) dropIndex(key string) {
	s.mu.Lock()
	s.index.Remove(key)
	s.publishLocked()
	s.mu.Unlock()
}

func (s *Store) publishLocked() {
	s.bytesGauge.Set(float64(s.index.Cost()))
	s.entGauge.Set(float64(s.index.Len()))
}

// Len returns the number of indexed entries.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.index.Len()
}

// Bytes returns the resident payload bytes (compressed, as stored).
func (s *Store) Bytes() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.index.Cost()
}

// Stats is a point-in-time operational summary of a store.
type Stats struct {
	Entries     int
	Bytes       int64
	Hits        int64
	Misses      int64
	Writes      int64
	Corrupt     int64
	GCEvictions int64
}

// Stats snapshots the store's counters and residency.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	s.mu.Lock()
	entries, total := s.index.Len(), s.index.Cost()
	s.mu.Unlock()
	return Stats{
		Entries:     entries,
		Bytes:       total,
		Hits:        s.hits.Value(),
		Misses:      s.misses.Value(),
		Writes:      s.writes.Value(),
		Corrupt:     s.corrupt.Value(),
		GCEvictions: s.gcEvicted.Value(),
	}
}

// writeBlob assembles the gzip blob in the store's tmp directory and renames
// it into place, returning the on-disk size.
func writeBlob(dir, path, key string, payload []byte) (int64, error) {
	sum := sha256.Sum256(payload)
	h := header{V: blobVersion, Key: key, SHA256: hex.EncodeToString(sum[:]), Len: len(payload)}
	hb, err := json.Marshal(h)
	if err != nil {
		return 0, fmt.Errorf("store: header marshal: %w", err)
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(append(hb, '\n')); err != nil {
		return 0, fmt.Errorf("store: compress: %w", err)
	}
	if _, err := zw.Write(payload); err != nil {
		return 0, fmt.Errorf("store: compress: %w", err)
	}
	if err := zw.Close(); err != nil {
		return 0, fmt.Errorf("store: compress: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Join(dir, "tmp"), "blob-*")
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return 0, fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return 0, fmt.Errorf("store: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		os.Remove(tmpName)
		return 0, fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return 0, fmt.Errorf("store: %w", err)
	}
	return int64(buf.Len()), nil
}

// readHeader decodes just the header line of a blob.
func readHeader(path string) (header, error) {
	f, err := os.Open(path)
	if err != nil {
		return header{}, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return header{}, err
	}
	defer zr.Close()
	return parseHeader(bufio.NewReader(zr))
}

func parseHeader(r *bufio.Reader) (header, error) {
	line, err := r.ReadBytes('\n')
	if err != nil {
		return header{}, fmt.Errorf("store: truncated header: %w", err)
	}
	var h header
	if err := json.Unmarshal(line, &h); err != nil {
		return header{}, fmt.Errorf("store: bad header: %w", err)
	}
	if h.V != blobVersion {
		return header{}, fmt.Errorf("store: blob version %d (want %d)", h.V, blobVersion)
	}
	return h, nil
}

// readBlob reads and verifies one blob: the header must carry the requested
// key (a hash-collision or moved file serves nothing) and the payload must
// match its recorded length and SHA-256.
func readBlob(path, key string) ([]byte, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, 0, fmt.Errorf("store: %w", err)
	}
	defer zr.Close()
	br := bufio.NewReader(zr)
	h, err := parseHeader(br)
	if err != nil {
		return nil, 0, err
	}
	if h.Key != key {
		return nil, 0, fmt.Errorf("store: blob holds key %q, want %q", h.Key, key)
	}
	if h.Len < 0 {
		return nil, 0, fmt.Errorf("store: negative payload length %d", h.Len)
	}
	payload := make([]byte, h.Len)
	if _, err := io.ReadFull(br, payload); err != nil {
		return nil, 0, fmt.Errorf("store: truncated payload: %w", err)
	}
	// Trailing bytes mean the blob does not match its header.
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, 0, errors.New("store: trailing bytes after payload")
	}
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != h.SHA256 {
		return nil, 0, errors.New("store: payload checksum mismatch")
	}
	return payload, info.Size(), nil
}
