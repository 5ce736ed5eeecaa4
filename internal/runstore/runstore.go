package runstore

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/frame"
)

// Store is a run ledger rooted at one directory. Each record lives in
// "<id>.run" (CRC-checked, published by frame.Publish, immutable once
// written) with its non-deterministic attempt history appended to
// "<id>.attempts.jsonl" — one JSON line per time the run was executed.
// A Store is safe for concurrent use by independent processes the same way
// cachestore is: records are content-addressed and write-once, so the worst
// concurrent Put of the same run is a harmless double write of identical
// bytes.
type Store struct {
	dir string
}

// Open opens (creating if needed) the ledger directory.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runstore: opening ledger dir: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the ledger directory.
func (s *Store) Dir() string { return s.dir }

// Attempt is one execution of a recorded run: everything about the run
// that may differ between identical executions — wall time, worker count,
// fleet occupancy, throughput, the flight-recorder tail — quarantined here
// so the record itself stays deterministic. Sidecar lines written before a
// field was retired (such as the old scheduler name) still decode: unknown
// keys are ignored.
type Attempt struct {
	TimeUnixNano int64   `json:"time_unix_nano"`
	WallSeconds  float64 `json:"wall_seconds"`
	Parallelism  int     `json:"parallelism"`
	// Flags is the full resolved flag map of this execution, including the
	// scheduling and output flags the manifest's identity set excludes.
	Flags map[string]string `json:"flags,omitempty"`

	PoolRuns         int64   `json:"pool_runs,omitempty"`
	PoolTasks        int64   `json:"pool_tasks,omitempty"`
	MaxWorkers       int     `json:"max_workers,omitempty"`
	FleetUtilization float64 `json:"fleet_utilization,omitempty"`
	DiesPerSecond    float64 `json:"dies_per_second,omitempty"`

	// Flight is the flight-recorder tail at finalize time, verbatim.
	Flight json.RawMessage `json:"flight,omitempty"`
}

// Put stores the record under its content address. If an identical record
// already exists the existing one is kept (created=false); a same-ID file
// with different bytes — a corrupt store or a hash collision — is an error.
func (s *Store) Put(rec *Record) (id string, created bool, err error) {
	id, err = rec.ID()
	if err != nil {
		return "", false, err
	}
	enc, err := rec.Encode()
	if err != nil {
		return "", false, err
	}
	path := s.recordPath(id)
	existing, rerr := os.ReadFile(path)
	switch {
	case rerr == nil:
		if bytes.Equal(existing, enc) {
			return id, false, nil
		}
		return id, false, fmt.Errorf("runstore: %s: existing record differs from a same-ID encode (corrupt store?)", path)
	case !errors.Is(rerr, fs.ErrNotExist):
		return "", false, fmt.Errorf("runstore: reading %s: %w", path, rerr)
	}
	if err := frame.Publish(path, enc); err != nil {
		return "", false, fmt.Errorf("runstore: publishing record: %w", err)
	}
	return id, true, nil
}

// Get loads one record by ID.
func (s *Store) Get(id string) (*Record, error) {
	if !ValidID(id) {
		return nil, fmt.Errorf("runstore: invalid run id %q", id)
	}
	path := s.recordPath(id)
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("runstore: no record %s in %s", id, s.dir)
		}
		return nil, fmt.Errorf("runstore: reading %s: %w", path, err)
	}
	rec, err := Decode(data, path)
	if err != nil {
		return nil, err
	}
	return rec, nil
}

// AppendAttempt appends one execution's ND sidecar line for the record. A
// torn final line — an earlier append cut short by a full disk or a crash —
// is cut off first, so the new line never glues onto it.
func (s *Store) AppendAttempt(id string, a Attempt) error {
	if !ValidID(id) {
		return fmt.Errorf("runstore: invalid run id %q", id)
	}
	line, err := json.Marshal(a)
	if err != nil {
		return fmt.Errorf("runstore: encoding attempt: %w", err)
	}
	line = append(line, '\n')
	f, err := os.OpenFile(s.attemptsPath(id), os.O_APPEND|os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("runstore: opening attempts sidecar: %w", err)
	}
	if err := cutTornLine(f); err != nil {
		f.Close()
		return fmt.Errorf("runstore: cutting a torn attempt line: %w", err)
	}
	if _, err := f.Write(line); err != nil {
		f.Close()
		return fmt.Errorf("runstore: appending attempt: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("runstore: closing attempts sidecar: %w", err)
	}
	return nil
}

// cutTornLine truncates the sidecar after its last newline when its final
// line is unterminated.
func cutTornLine(f *os.File) error {
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	size := fi.Size()
	if size == 0 {
		return nil
	}
	data := make([]byte, 1)
	if _, err := f.ReadAt(data, size-1); err != nil {
		return err
	}
	if data[0] == '\n' {
		return nil
	}
	data = make([]byte, size)
	if _, err := f.ReadAt(data, 0); err != nil {
		return err
	}
	return f.Truncate(int64(bytes.LastIndexByte(data, '\n') + 1))
}

// Attempts returns the record's execution history, oldest first. A record
// with no sidecar has zero attempts (not an error). An unterminated final
// line is a torn append, not an attempt, and is skipped; a terminated line
// that does not parse is an error.
func (s *Store) Attempts(id string) ([]Attempt, error) {
	if !ValidID(id) {
		return nil, fmt.Errorf("runstore: invalid run id %q", id)
	}
	path := s.attemptsPath(id)
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("runstore: reading %s: %w", path, err)
	}
	data = data[:bytes.LastIndexByte(data, '\n')+1]
	var out []Attempt
	for i, line := range bytes.Split(data, []byte{'\n'}) {
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		var a Attempt
		if err := json.Unmarshal(line, &a); err != nil {
			return nil, fmt.Errorf("runstore: %s line %d: %w", path, i+1, err)
		}
		out = append(out, a)
	}
	return out, nil
}

// Summary is one record's listing row: identity plus the attempt history
// and the deterministic report totals.
type Summary struct {
	ID       string
	Manifest Manifest
	Totals   ReportTotals
	Attempts []Attempt
}

// FirstAttemptNano returns the oldest execution time, 0 with no attempts.
func (sum Summary) FirstAttemptNano() int64 {
	if len(sum.Attempts) == 0 {
		return 0
	}
	first := sum.Attempts[0].TimeUnixNano
	for _, a := range sum.Attempts[1:] {
		if a.TimeUnixNano < first {
			first = a.TimeUnixNano
		}
	}
	return first
}

// LastAttemptNano returns the newest execution time, 0 with no attempts.
func (sum Summary) LastAttemptNano() int64 {
	var last int64
	for _, a := range sum.Attempts {
		if a.TimeUnixNano > last {
			last = a.TimeUnixNano
		}
	}
	return last
}

// List decodes every record in the ledger, sorted chronologically by first
// attempt time (records without attempts sort first), ties broken by ID.
// Files that are not run records (temp files, sidecars, foreign data) are
// skipped; a record that fails its checksum is an error, not a skip — a
// regression gate must not silently ignore corrupt history.
func (s *Store) List() ([]Summary, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("runstore: listing ledger dir: %w", err)
	}
	var out []Summary
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".run") {
			continue
		}
		id := strings.TrimSuffix(name, ".run")
		if !ValidID(id) {
			continue
		}
		rec, err := s.Get(id)
		if err != nil {
			return nil, err
		}
		totals, _ := rec.Totals()
		attempts, err := s.Attempts(id)
		if err != nil {
			return nil, err
		}
		out = append(out, Summary{ID: id, Manifest: rec.Manifest, Totals: totals, Attempts: attempts})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].FirstAttemptNano(), out[j].FirstAttemptNano()
		if a != b {
			return a < b
		}
		return out[i].ID < out[j].ID
	})
	return out, nil
}

// ValidID reports whether id is a well-formed run ID (lowercase hex, the
// 32-char truncated-SHA-256 the store mints). Gate every path built from an
// externally supplied ID through this — it is what keeps "../../etc" out of
// the ledger directory.
func ValidID(id string) bool {
	if len(id) != 32 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (s *Store) recordPath(id string) string {
	return filepath.Join(s.dir, id+".run")
}

func (s *Store) attemptsPath(id string) string {
	return filepath.Join(s.dir, id+".attempts.jsonl")
}
