package obs

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"repro/internal/ate"
	"repro/internal/core"
	"repro/internal/dut"
	"repro/internal/telemetry"
	"repro/internal/testgen"
)

func TestProgressPublishAndWatch(t *testing.T) {
	p := NewProgress("r")
	s := p.Current()
	if s.Run != "r" || s.State != StateStarting || s.Seq != 0 {
		t.Fatalf("initial snapshot = %+v", s)
	}
	if p.Ready() {
		t.Error("ready before any phase started")
	}

	watch := p.Watch()
	p.PhaseStarted("learn")
	select {
	case <-watch:
	default:
		t.Fatal("watch channel not closed on publish")
	}
	s = p.Current()
	if s.Phase != "learn" || s.State != StateRunning || s.Seq != 1 {
		t.Fatalf("after PhaseStarted: %+v", s)
	}
	if !p.Ready() {
		t.Error("not ready while running")
	}

	p.SearchRecorded(4, 64, true)
	p.CacheLookups(3, 1, 64)
	p.DiskCache(telemetry.DiskCacheStats{LoadedEntries: 4, Hits: 3, Misses: 9, FlushedEntries: 9, BytesOnDisk: 720})
	p.Item("learn-test", 5, 120)
	p.Generation(2, 1.5)
	p.PhaseEnded("learn", telemetry.Cost{Measurements: 4, SimTimeSec: 0.5})
	p.Done()

	s = p.Current()
	if s.Phase != "" || s.State != StateDone {
		t.Errorf("final phase/state = %q/%q", s.Phase, s.State)
	}
	if s.Searches != 1 || s.SearchMeasurements != 4 {
		t.Errorf("searches = %d/%d", s.Searches, s.SearchMeasurements)
	}
	// baseline = 64 (search) + 3 hits × 64.
	if s.BaselineMeasurements != 64+3*64 || s.MeasurementsSaved != 64+3*64-4 {
		t.Errorf("baseline/saved = %d/%d", s.BaselineMeasurements, s.MeasurementsSaved)
	}
	if s.DiskLoaded != 4 || s.DiskHits != 3 || s.DiskMisses != 9 || s.DiskFlushed != 9 || s.DiskBytes != 720 || s.DiskHitRate != 0.25 {
		t.Errorf("disk cache section = %+v", s)
	}
	if s.CacheHits != 3 || s.CacheMisses != 1 || s.CacheHitRate != 0.75 {
		t.Errorf("cache = %d/%d rate %v", s.CacheHits, s.CacheMisses, s.CacheHitRate)
	}
	if got := s.Items["learn-test"]; got != (ItemProgress{Done: 5, Total: 120}) {
		t.Errorf("item progress = %+v", got)
	}
	if s.Generation != 2 || s.BestWCR != 1.5 {
		t.Errorf("generation = %d best %v", s.Generation, s.BestWCR)
	}
	if len(s.PhasesDone) != 1 || s.PhasesDone[0] != (PhaseCost{Name: "learn", Cost: telemetry.Cost{Measurements: 4, SimTimeSec: 0.5}}) {
		t.Errorf("phases done = %+v", s.PhasesDone)
	}
	if !p.Ready() {
		t.Error("finished run must stay ready for late scrapes")
	}

	// Earlier snapshots are immutable: the one taken at Seq 1 kept its state.
	if s2 := p.Current(); s2.Seq == 0 {
		t.Error("Seq not advancing")
	}

	// Nil publisher is inert.
	var nilP *Progress
	nilP.Done()
	if nilP.Ready() {
		t.Error("nil progress reports ready")
	}
}

func TestProgressConcurrentReaders(t *testing.T) {
	p := NewProgress("c")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = p.Current()
					_ = p.Watch()
				}
			}
		}()
	}
	for i := 0; i < 500; i++ {
		p.Item("spin", i, 500)
	}
	close(stop)
	wg.Wait()
	if got := p.Current().Items["spin"]; got.Done != 499 {
		t.Errorf("last item = %+v", got)
	}
}

// quickConfig mirrors internal/core's test configuration: a flow small
// enough to run in well under a second but exercising every phase.
func quickFlowConfig(seed int64) core.Config {
	cfg := core.DefaultConfig(seed)
	cfg.LearnTests = 60
	cfg.EnsembleSize = 2
	cfg.HiddenLayers = []int{10}
	cfg.CandidatePool = 150
	cfg.SeedCount = 8
	cfg.GA.PopSize = 8
	cfg.GA.Islands = 2
	cfg.GA.MaxGenerations = 6
	nominal := testgen.NominalConditions()
	cfg.FixedConditions = &nominal
	return cfg
}

func newFlowTester(t *testing.T, seed int64) *ate.ATE {
	t.Helper()
	dev, err := dut.NewDevice(dut.DefaultGeometry(), dut.NewDie(0, dut.CornerTypical))
	if err != nil {
		t.Fatal(err)
	}
	return ate.New(dev, seed)
}

// runFlow executes the learn → propose-seeds → optimize flow with the given
// parallelism, returning the trace bytes and (when attach is true) the
// final progress snapshot.
func runFlow(t *testing.T, seed int64, parallelism int, attach bool) ([]byte, *Snapshot) {
	t.Helper()
	var buf bytes.Buffer
	tel := telemetry.New("flow", telemetry.NewTracer(&buf))
	var p *Progress
	if attach {
		p = NewProgress("flow")
		tel.SetRunObserver(p)
	}
	cfg := quickFlowConfig(seed)
	cfg.Parallelism = parallelism
	cfg.Telemetry = tel
	char, err := core.NewCharacterizer(cfg, newFlowTester(t, seed))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := char.Learn(); err != nil {
		t.Fatal(err)
	}
	if _, err := char.Optimize(); err != nil {
		t.Fatal(err)
	}
	if err := tel.Close(); err != nil {
		t.Fatal(err)
	}
	if p != nil {
		p.Done()
		return buf.Bytes(), p.Current()
	}
	return buf.Bytes(), nil
}

// The /progress snapshot is fed exclusively from deterministic program
// points, so the final snapshot of a run is identical for any -parallel
// worker count.
func TestProgressSnapshotDeterministicAcrossParallelism(t *testing.T) {
	_, serial := runFlow(t, 91, 1, true)
	if serial.State != StateDone || serial.Searches == 0 || len(serial.PhasesDone) == 0 {
		t.Fatalf("serial snapshot looks empty: %+v", serial)
	}
	for _, workers := range []int{2, 8} {
		_, par := runFlow(t, 91, workers, true)
		if !reflect.DeepEqual(serial, par) {
			t.Errorf("parallelism=%d final progress snapshot differs:\nserial: %+v\npar:    %+v",
				workers, serial, par)
		}
	}
}

// Attaching the live observer (and an admin server scraping it) must not
// change a single trace byte.
func TestTraceIdenticalWithAndWithoutObserver(t *testing.T) {
	plain, _ := runFlow(t, 57, 2, false)
	if len(plain) == 0 {
		t.Fatal("flow produced an empty trace")
	}
	observed, snap := runFlow(t, 57, 2, true)
	if !bytes.Equal(plain, observed) {
		t.Errorf("trace differs with progress observer attached (%d vs %d bytes)",
			len(plain), len(observed))
	}
	if snap.Searches == 0 || snap.CacheHits == 0 {
		t.Errorf("observer snapshot missing activity: %+v", snap)
	}
	wantPhases := map[string]bool{"learn": false, "propose-seeds": false, "optimize": false}
	for _, ph := range snap.PhasesDone {
		if _, ok := wantPhases[ph.Name]; ok {
			wantPhases[ph.Name] = true
		}
	}
	for name, seen := range wantPhases {
		if !seen {
			t.Errorf("progress snapshot missing completed phase %q", name)
		}
	}
	if snap.Generation == 0 {
		t.Error("progress snapshot saw no GA generations")
	}
	if got := snap.Items["learn-test"]; got.Done == 0 || got.Total != 60 {
		t.Errorf("learn-test item progress = %+v, want done>0 total=60", got)
	}
}
