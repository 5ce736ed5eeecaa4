package jobs

// Journal codec and scheduler invariants, property-test style: randomized
// entry streams round-trip exactly, any byte-level truncation degrades to a
// strict replay prefix (never an error, never invented state), mid-file
// corruption is rejected outright, and reopening a journal after a kill
// resumes exactly the pending set.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// randomEntries builds a coherent random journal history: jobs are
// submitted and then walked through legal transitions.
func randomEntries(rng *rand.Rand, n int) []journalEntry {
	var entries []journalEntry
	type st struct{ state State }
	jobs := map[string]*st{}
	var ids []string
	seq := int64(1)
	for len(entries) < n {
		// Bias toward submits early so transitions have targets.
		if len(ids) == 0 || rng.Intn(3) == 0 {
			id := jobID(seq)
			entries = append(entries, journalEntry{Op: "submit", Job: &Job{
				ID:  id,
				Seq: seq,
				Submission: Submission{
					Flow:     []string{"learn", "optimize", "shmoo", "lot", "table1"}[rng.Intn(5)],
					Seed:     rng.Int63n(1000),
					Priority: rng.Intn(5) - 2,
					Args:     map[string]string{"k": fmt.Sprint(rng.Intn(100))},
				},
				Workers: 1 + rng.Intn(4),
				State:   StateQueued,
			}})
			jobs[id] = &st{state: StateQueued}
			ids = append(ids, id)
			seq++
			continue
		}
		id := ids[rng.Intn(len(ids))]
		j := jobs[id]
		switch j.state {
		case StateQueued:
			if rng.Intn(2) == 0 {
				entries = append(entries, journalEntry{Op: "start", ID: id, At: rng.Int63()})
				j.state = StateRunning
			} else {
				entries = append(entries, journalEntry{Op: "cancel", ID: id, At: rng.Int63()})
				j.state = StateCanceled
			}
		case StateRunning:
			switch rng.Intn(3) {
			case 0:
				entries = append(entries, journalEntry{Op: "cancel", ID: id, At: rng.Int63()})
			case 1:
				entries = append(entries, journalEntry{
					Op: "finish", ID: id, State: StateDone,
					RunID: fmt.Sprintf("%032x", rng.Uint64()), Fingerprint: fmt.Sprintf("%016x", rng.Uint64()),
					Output: strings.Repeat("x", rng.Intn(64)), At: rng.Int63(),
				})
				j.state = StateDone
			default:
				entries = append(entries, journalEntry{
					Op: "finish", ID: id, State: StateFailed, Error: "boom", At: rng.Int63(),
				})
				j.state = StateFailed
			}
		default:
			// Terminal: nothing legal left for this job; submit instead.
			continue
		}
	}
	return entries
}

// encodeAll frames a whole entry stream.
func encodeAll(t *testing.T, entries []journalEntry) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, e := range entries {
		frame, err := encodeEntry(e)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		buf.Write(frame)
	}
	return buf.Bytes()
}

// entriesEqual compares via JSON (the codec's own equivalence).
func entriesEqual(a, b []journalEntry) bool {
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	return bytes.Equal(ja, jb)
}

func TestJournalRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		entries := randomEntries(rng, 1+rng.Intn(40))
		data := encodeAll(t, entries)
		got, goodLen, err := loadJournal(data)
		if err != nil {
			t.Fatalf("trial %d: load: %v", trial, err)
		}
		if goodLen != len(data) {
			t.Fatalf("trial %d: goodLen %d, want %d", trial, goodLen, len(data))
		}
		if !entriesEqual(got, entries) {
			t.Fatalf("trial %d: round trip mismatch (%d vs %d entries)", trial, len(got), len(entries))
		}
	}
}

// TestJournalTruncationProperty: truncating the journal at ANY byte — a
// crash can stop a write wherever it likes — must yield a clean prefix of
// the entry stream, never an error and never a partial entry.
func TestJournalTruncationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	entries := randomEntries(rng, 25)
	data := encodeAll(t, entries)

	// Frame boundaries → how many entries a given prefix should decode to.
	wantAt := func(cut int) int {
		off, n := 0, 0
		for _, e := range entries {
			frame, _ := encodeEntry(e)
			if off+len(frame) > cut {
				break
			}
			off += len(frame)
			n++
		}
		return n
	}
	for cut := 0; cut <= len(data); cut++ {
		got, goodLen, err := loadJournal(data[:cut])
		if err != nil {
			t.Fatalf("cut %d: unexpected error: %v", cut, err)
		}
		if want := wantAt(cut); len(got) != want {
			t.Fatalf("cut %d: %d entries, want %d", cut, len(got), want)
		}
		if goodLen > cut {
			t.Fatalf("cut %d: goodLen %d past the cut", cut, goodLen)
		}
		if _, _, rerr := replay(got); rerr != nil {
			t.Fatalf("cut %d: prefix does not replay: %v", cut, rerr)
		}
	}
}

// TestJournalCorruptionRejected: a flipped byte before the final frame is
// not a torn tail — the load must fail loudly, not replay past it.
func TestJournalCorruptionRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	entries := randomEntries(rng, 10)
	data := encodeAll(t, entries)

	// Flip one payload byte of the first frame (not the length prefix, whose
	// corruption is reported as its own oversized-frame error).
	corrupt := append([]byte(nil), data...)
	corrupt[5] ^= 0xff
	if _, _, err := loadJournal(corrupt); err == nil {
		t.Fatal("mid-file payload corruption loaded without error")
	}

	// An oversized length prefix is corruption wherever it appears.
	corrupt = append([]byte(nil), data...)
	corrupt[0] = 0xff
	if _, _, err := loadJournal(corrupt); err == nil || !strings.Contains(err.Error(), "corrupt journal") {
		t.Fatalf("oversized frame: err %v, want corrupt-journal error", err)
	}

	// A length enlarged past EOF reads like a torn first frame, but the
	// intact frames it swallowed give it away.
	corrupt = append([]byte(nil), data...)
	binary.BigEndian.PutUint32(corrupt, uint32(len(data)))
	if _, _, err := loadJournal(corrupt); err == nil || !strings.Contains(err.Error(), "corrupt journal at offset 0") {
		t.Fatalf("frame 0 length past EOF: err %v, want corrupt-journal error at offset 0", err)
	}

	// The same flip in the FINAL frame's payload is indistinguishable from a
	// torn tail write and must degrade to the intact prefix.
	lastStart := len(data) - len(mustEncode(t, entries[len(entries)-1]))
	corrupt = append([]byte(nil), data...)
	corrupt[lastStart+5] ^= 0xff
	got, goodLen, err := loadJournal(corrupt)
	if err != nil {
		t.Fatalf("final-frame corruption: %v", err)
	}
	if len(got) != len(entries)-1 || goodLen != lastStart {
		t.Fatalf("final-frame corruption: %d entries to offset %d, want %d to %d",
			len(got), goodLen, len(entries)-1, lastStart)
	}
}

// TestJournalBitFlipProperty: a single-bit flip anywhere but the final
// frame fails the load; one inside the final frame fails it or reads as a
// torn tail, loading every other entry — never an altered entry.
func TestJournalBitFlipProperty(t *testing.T) {
	entries := randomEntries(rand.New(rand.NewSource(4)), 10)
	data := encodeAll(t, entries)
	lastStart := len(data) - len(mustEncode(t, entries[len(entries)-1]))
	for bit := 0; bit < 8*len(data); bit++ {
		mut := bytes.Clone(data)
		mut[bit/8] ^= 1 << (bit % 8)
		got, _, err := loadJournal(mut)
		switch {
		case err != nil:
		case bit/8 < lastStart:
			t.Fatalf("bit %d: flip before the final frame loaded %d entries without error", bit, len(got))
		case len(got) != len(entries)-1 || !entriesEqual(got, entries[:len(got)]):
			t.Fatalf("bit %d: final-frame flip loaded %d entries, want the %d before it", bit, len(got), len(entries)-1)
		}
	}
}

// TestJournalFixtureRoundTrip pins the journal format: a journal written by
// an earlier build decodes, replays, and re-encodes byte for byte.
func TestJournalFixtureRoundTrip(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", journalName))
	if err != nil {
		t.Fatal(err)
	}
	if string(data[:len(journalMagic)]) != journalMagic {
		t.Fatalf("fixture magic %q", data[:len(journalMagic)])
	}
	entries, goodLen, err := loadJournal(data[len(journalMagic):])
	if err != nil || goodLen != len(data)-len(journalMagic) {
		t.Fatalf("loadJournal: %d entries to offset %d, %v", len(entries), goodLen, err)
	}
	if re := append([]byte(journalMagic), encodeAll(t, entries)...); !bytes.Equal(re, data) {
		t.Fatalf("re-encoded journal differs from the fixture (%d vs %d bytes)", len(re), len(data))
	}
	jobs, _, err := replay(entries)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]State{}
	for id, j := range jobs {
		got[id] = j.State
	}
	want := map[string]State{"j000001": StateRunning, "j000002": StateDone, "j000003": StateCanceled}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed states %v, want %v", got, want)
	}
}

func mustEncode(t *testing.T, e journalEntry) []byte {
	t.Helper()
	frame, err := encodeEntry(e)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestQueueRestartResumesPendingSet: kill the process (no clean close, a
// torn tail appended) and reopen — exactly the pending set survives:
// queued stays queued, running returns to queued, running-with-cancel lands
// canceled, terminal states are untouched.
func TestQueueRestartResumesPendingSet(t *testing.T) {
	dir := t.TempDir()
	q, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(pri int) *Job {
		j, err := q.Submit(Submission{Flow: "shmoo", Seed: 1, Priority: pri})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	queued := mk(0)
	running := mk(1)
	runningCanceled := mk(2)
	finished := mk(0)
	canceled := mk(0)

	for _, id := range []string{running.ID, runningCanceled.ID, finished.ID} {
		if _, err := q.Start(id); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := q.Finish(finished.ID, StateDone, "runid", "fp", "", "out"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := q.Cancel(runningCanceled.ID); err != nil {
		t.Fatal(err)
	}
	if _, _, err := q.Cancel(canceled.ID); err != nil {
		t.Fatal(err)
	}

	// Simulate the kill: append a torn frame to the journal, no Close.
	path := filepath.Join(dir, journalName)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x00, 0x00, 0x01}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	q2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer q2.Close()

	want := map[string]State{
		queued.ID:          StateQueued,
		running.ID:         StateQueued, // resumed
		runningCanceled.ID: StateCanceled,
		finished.ID:        StateDone,
		canceled.ID:        StateCanceled,
	}
	got := map[string]State{}
	for _, j := range q2.List() {
		got[j.ID] = j.State
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("states after restart: %v, want %v", got, want)
	}
	fin, err := q2.Get(finished.ID)
	if err != nil || fin.RunID != "runid" || fin.Fingerprint != "fp" || fin.Output != "out" {
		t.Fatalf("finished job lost its result across restart: %+v, %v", fin, err)
	}

	// The resumed head is the highest-priority queued job.
	if head := q2.NextRunnable(); head == nil || head.ID != running.ID {
		t.Fatalf("NextRunnable after restart: %+v, want %s", head, running.ID)
	}

	// A new submission continues the ID sequence, not reusing old IDs.
	fresh, err := q2.Submit(Submission{Flow: "shmoo", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Seq <= canceled.Seq {
		t.Fatalf("sequence regressed after restart: %d <= %d", fresh.Seq, canceled.Seq)
	}
}

// TestQueueRejectsForeignFile: a non-journal file in the queue dir must not
// be silently clobbered or replayed.
func TestQueueRejectsForeignFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, journalName), []byte("not a journal at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("foreign file: err %v, want bad-magic error", err)
	}
}

// TestQueuePriorityOrder pins the scheduler key: priority descending, then
// submission order.
func TestQueuePriorityOrder(t *testing.T) {
	q, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	var ids []string
	for _, pri := range []int{0, 2, 1, 2, -1} {
		j, err := q.Submit(Submission{Flow: "shmoo", Priority: pri})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	wantOrder := []string{ids[1], ids[3], ids[2], ids[0], ids[4]}
	for _, want := range wantOrder {
		head := q.NextRunnable()
		if head == nil || head.ID != want {
			t.Fatalf("NextRunnable: %+v, want %s", head, want)
		}
		if _, err := q.Start(head.ID); err != nil {
			t.Fatal(err)
		}
	}
	if head := q.NextRunnable(); head != nil {
		t.Fatalf("queue should be drained, got %+v", head)
	}
}
