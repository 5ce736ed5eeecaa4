package core

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/ate"
	"repro/internal/frame"
	"repro/internal/testgen"
	"repro/internal/wcr"
)

// Entry is one record of the worst-case test database: the test, its
// measured parameter value and WCR classification. Functional failure
// patterns are kept in a separate list, following the paper ("functional
// failure patterns (if any) are stored separately").
type Entry struct {
	Test  testgen.Test
	Value float64
	WCR   float64
	Class wcr.Class
}

// Database is the worst-case test database of fig. 5: the final output of
// the optimization scheme, handed to detailed ATE / circuit-level analysis.
type Database struct {
	Parameter ate.Parameter
	Entries   []Entry
	// Functional holds tests that provoked functional (value) failures.
	Functional []testgen.Test

	index map[string]int // test name → entry position
}

// NewDatabase creates an empty database for the parameter.
func NewDatabase(param ate.Parameter) *Database {
	return &Database{Parameter: param, index: make(map[string]int)}
}

// Add inserts or updates an entry (keyed by test name, keeping the worse
// WCR on collision).
func (d *Database) Add(e Entry) {
	if d.index == nil {
		d.index = make(map[string]int)
	}
	if i, ok := d.index[e.Test.Name]; ok {
		if e.WCR > d.Entries[i].WCR {
			d.Entries[i] = e
		}
		return
	}
	d.index[e.Test.Name] = len(d.Entries)
	d.Entries = append(d.Entries, e)
}

// AddFunctionalFailure records a test that provoked a functional failure.
func (d *Database) AddFunctionalFailure(t testgen.Test) {
	d.Functional = append(d.Functional, t)
}

// Sort orders entries worst (largest WCR) first and rebuilds the index.
func (d *Database) Sort() {
	sort.SliceStable(d.Entries, func(i, j int) bool {
		if d.Entries[i].WCR != d.Entries[j].WCR {
			return d.Entries[i].WCR > d.Entries[j].WCR
		}
		return d.Entries[i].Test.Name < d.Entries[j].Test.Name
	})
	d.index = make(map[string]int, len(d.Entries))
	for i, e := range d.Entries {
		d.index[e.Test.Name] = i
	}
}

// Worst returns the worst entry; ok is false when empty.
func (d *Database) Worst() (Entry, bool) {
	if len(d.Entries) == 0 {
		return Entry{}, false
	}
	best := d.Entries[0]
	for _, e := range d.Entries[1:] {
		if e.WCR > best.WCR {
			best = e
		}
	}
	return best, true
}

// Len returns the number of entries.
func (d *Database) Len() int { return len(d.Entries) }

// databaseJSON is the serialized form. Sequences serialize as compact
// vector triples.
type databaseJSON struct {
	Parameter  string      `json:"parameter"`
	Entries    []entryJSON `json:"entries"`
	Functional []testJSON  `json:"functional,omitempty"`
}

type entryJSON struct {
	Test  testJSON `json:"test"`
	Value float64  `json:"value"`
	WCR   float64  `json:"wcr"`
	Class string   `json:"class"`
}

type testJSON struct {
	Name string      `json:"name"`
	Cond condJSON    `json:"cond"`
	Seq  [][3]uint32 `json:"seq"` // [op, addr, data]
}

type condJSON struct {
	VddV     float64 `json:"vdd_v"`
	TempC    float64 `json:"temp_c"`
	ClockMHz float64 `json:"clock_mhz"`
}

func testToJSON(t testgen.Test) testJSON {
	tj := testJSON{
		Name: t.Name,
		Cond: condJSON{VddV: t.Cond.VddV, TempC: t.Cond.TempC, ClockMHz: t.Cond.ClockMHz},
		Seq:  make([][3]uint32, len(t.Seq)),
	}
	for i, v := range t.Seq {
		tj.Seq[i] = [3]uint32{uint32(v.Op), v.Addr, v.Data}
	}
	return tj
}

func testFromJSON(tj testJSON) (testgen.Test, error) {
	t := testgen.Test{
		Name: tj.Name,
		Cond: testgen.Conditions{VddV: tj.Cond.VddV, TempC: tj.Cond.TempC, ClockMHz: tj.Cond.ClockMHz},
		Seq:  make(testgen.Sequence, len(tj.Seq)),
	}
	for i, v := range tj.Seq {
		if v[0] > uint32(testgen.OpRead) {
			return t, fmt.Errorf("core: test %s vector %d: invalid op %d", tj.Name, i, v[0])
		}
		t.Seq[i] = testgen.Vector{Op: testgen.OpKind(v[0]), Addr: v[1], Data: v[2]}
	}
	return t, nil
}

// Save writes the database as JSON.
func (d *Database) Save(w io.Writer) error {
	dj := databaseJSON{Parameter: d.Parameter.String()}
	for _, e := range d.Entries {
		dj.Entries = append(dj.Entries, entryJSON{
			Test:  testToJSON(e.Test),
			Value: e.Value,
			WCR:   e.WCR,
			Class: e.Class.String(),
		})
	}
	for _, t := range d.Functional {
		dj.Functional = append(dj.Functional, testToJSON(t))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(dj)
}

// SaveFile atomically replaces the named file with the database. The JSON
// is rendered in memory first, so a failed encode (a NaN WCR) leaves the
// previous file untouched.
func (d *Database) SaveFile(path string) error {
	return frame.PublishWith(path, d.Save)
}

// LoadDatabase reads a database from JSON.
func LoadDatabase(r io.Reader) (*Database, error) {
	var dj databaseJSON
	if err := json.NewDecoder(r).Decode(&dj); err != nil {
		return nil, fmt.Errorf("core: decoding database: %w", err)
	}
	var param ate.Parameter
	switch dj.Parameter {
	case ate.TDQ.String():
		param = ate.TDQ
	case ate.Fmax.String():
		param = ate.Fmax
	case ate.VddMin.String():
		param = ate.VddMin
	default:
		return nil, fmt.Errorf("core: unknown parameter %q in database", dj.Parameter)
	}
	d := NewDatabase(param)
	for _, ej := range dj.Entries {
		t, err := testFromJSON(ej.Test)
		if err != nil {
			return nil, err
		}
		d.Add(Entry{Test: t, Value: ej.Value, WCR: ej.WCR, Class: wcr.Classify(ej.WCR)})
	}
	for _, tj := range dj.Functional {
		t, err := testFromJSON(tj)
		if err != nil {
			return nil, err
		}
		d.Functional = append(d.Functional, t)
	}
	return d, nil
}

// LoadDatabaseFile reads a database from the named file.
func LoadDatabaseFile(path string) (*Database, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadDatabase(f)
}
