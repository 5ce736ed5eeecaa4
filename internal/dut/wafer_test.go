package dut

import (
	"math"
	"sync"
	"testing"

	"repro/internal/testgen"
)

func TestNewWaferLotValidation(t *testing.T) {
	if _, err := NewWaferLot(1, 0, 10); err == nil {
		t.Error("0 wafers accepted")
	}
	if _, err := NewWaferLot(1, 2, 0); err == nil {
		t.Error("0 dies per wafer accepted")
	}
}

func TestWaferLotShapeAndIDs(t *testing.T) {
	l, err := NewWaferLot(7, 3, 50)
	if err != nil {
		t.Fatal(err)
	}
	if l.Len() != 150 || l.wafers != 3 || l.perWafer != 50 {
		t.Fatalf("shape: len=%d wafers=%d per=%d", l.Len(), l.wafers, l.perWafer)
	}
	for _, i := range []int{0, 49, 50, 149} {
		d := l.Die(i)
		if d.ID != i {
			t.Errorf("Die(%d).ID = %d", i, d.ID)
		}
		x, y := l.cellXY(i % l.perWafer)
		if r := math.Hypot(x, y); r > 1 {
			t.Errorf("die %d: radius %v off wafer", i, r)
		}
	}
}

// Random access must be deterministic and order-independent: the same index
// always yields identical silicon, also when several goroutines, each
// walking the lot in its own order, share the lot's read-only tables.
func TestWaferLotDeterministicRandomAccess(t *testing.T) {
	l, _ := NewWaferLot(42, 2, 80)
	want := make([]uint64, l.Len())
	for i := range want {
		want[i] = l.Die(i).Fingerprint()
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < l.Len(); k++ {
				i := (l.Len() - 1 - k*(2*g+1)%l.Len() + g) % l.Len()
				if got := l.Die(i).Fingerprint(); got != want[i] {
					t.Errorf("goroutine %d: Die(%d) fingerprint %#x, want %#x", g, i, got, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
	// A different seed describes different silicon.
	l2, _ := NewWaferLot(43, 2, 80)
	same := 0
	for i := range want {
		if l2.Die(i).Fingerprint() == want[i] {
			same++
		}
	}
	if same > 2 {
		t.Errorf("%d of %d dies identical across seeds", same, len(want))
	}
}

func TestWaferLotCornerMixAndSpatialStructure(t *testing.T) {
	l, _ := NewWaferLot(7, 4, 400)
	counts := map[Corner]int{}
	var innerSpeed, outerSpeed float64
	var inner, outer int
	for i := 0; i < l.Len(); i++ {
		d := l.Die(i)
		counts[d.Corner]++
		x, y := l.cellXY(i % l.perWafer)
		if x*x+y*y < 0.3 {
			innerSpeed += d.SpeedFactor()
			inner++
		} else if x*x+y*y > 0.7 {
			outerSpeed += d.SpeedFactor()
			outer++
		}
		if d.SpeedFactor() <= 0 || d.LeakageFactor() <= 0 {
			t.Fatalf("die %d: non-positive factors %+v", i, d)
		}
	}
	n := l.Len()
	for c, want := range map[Corner]float64{CornerTypical: 0.6, CornerFast: 0.2, CornerSlow: 0.2} {
		got := float64(counts[c]) / float64(n)
		if math.Abs(got-want) > 0.15 {
			t.Errorf("corner %v fraction %.3f, want ≈ %.2f", c, got, want)
		}
	}
	// Radial structure: edge dies run slower (higher speedFactor) on
	// average than center dies.
	if inner == 0 || outer == 0 {
		t.Fatal("degenerate spatial sample")
	}
	if outerSpeed/float64(outer) <= innerSpeed/float64(inner) {
		t.Errorf("no radial slowdown: center mean %.5f, edge mean %.5f",
			innerSpeed/float64(inner), outerSpeed/float64(outer))
	}
}

func TestWaferLotDefectivity(t *testing.T) {
	l, _ := NewWaferLot(7, 5, 2000)
	weak := 0
	for i := 0; i < l.Len(); i++ {
		weak += min(l.Die(i).WeakCellCount(), 1)
	}
	// Expected rate ~0.2–0.8%; require the mechanism fires but stays rare.
	if weak == 0 {
		t.Error("no weak dies in a 10k-die lot")
	}
	if frac := float64(weak) / float64(l.Len()); frac > 0.05 {
		t.Errorf("weak-die fraction %.4f implausibly high", frac)
	}
}

func TestLotSliceAdapter(t *testing.T) {
	lot := NewDieLot(1, 5)
	var src DieSource = LotSlice(lot)
	if src.Len() != 5 {
		t.Fatalf("Len = %d", src.Len())
	}
	for i := range lot {
		if src.Die(i) != lot[i] {
			t.Errorf("Die(%d) is not the slice element", i)
		}
	}
}

func TestDieFingerprint(t *testing.T) {
	a := NewDie(3, CornerFast)
	b := NewDie(3, CornerFast)
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("identical dies fingerprint differently")
	}
	for name, other := range map[string]*Die{
		"id":     NewDie(4, CornerFast),
		"corner": NewDie(3, CornerSlow),
		"tdq":    NewDie(3, CornerFast, WithExtraTDQOffsetNS(0.001)),
		"weak":   NewDie(3, CornerFast, WithWeakCell(7, 1.5)),
	} {
		if other.Fingerprint() == a.Fingerprint() {
			t.Errorf("%s variation not reflected in fingerprint", name)
		}
	}
	// Weak-cell iteration order must not matter.
	w1 := NewDie(0, CornerTypical, WithWeakCell(1, 1.5), WithWeakCell(2, 1.6), WithWeakCell(3, 1.7))
	w2 := NewDie(0, CornerTypical, WithWeakCell(3, 1.7), WithWeakCell(1, 1.5), WithWeakCell(2, 1.6))
	if w1.Fingerprint() != w2.Fingerprint() {
		t.Error("weak-cell insertion order changes fingerprint")
	}
}

func TestDeviceRetarget(t *testing.T) {
	geom := DefaultGeometry()
	d1 := NewDie(0, CornerSlow)
	d2 := NewDie(1, CornerFast)
	reused, err := NewDevice(geom, d1)
	if err != nil {
		t.Fatal(err)
	}
	seq := testgen.Sequence{
		{Op: testgen.OpWrite, Addr: 3, Data: 0xFFFFFFFF},
		{Op: testgen.OpRead, Addr: 3},
		{Op: testgen.OpWrite, Addr: 100, Data: 0x12345678},
		{Op: testgen.OpRead, Addr: 100},
	}
	tst := testgen.Test{Name: "retarget", Seq: seq, Cond: testgen.Conditions{VddV: 1.8, TempC: 25, ClockMHz: 100}}

	// Dirty the array and repair a row on die 1, then retarget to die 2.
	if _, err := reused.Profile(tst); err != nil {
		t.Fatal(err)
	}
	if err := reused.RepairRow(3); err != nil {
		t.Fatal(err)
	}
	if err := reused.Retarget(d2); err != nil {
		t.Fatal(err)
	}
	if reused.Die() != d2 {
		t.Fatal("Die() still the old die")
	}
	if len(reused.mem.rowRemap) != 0 {
		t.Errorf("repairs survived retarget: %d", len(reused.mem.rowRemap))
	}

	fresh, err := NewDevice(geom, d2)
	if err != nil {
		t.Fatal(err)
	}
	pa, err := reused.Profile(tst)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := fresh.Profile(tst)
	if err != nil {
		t.Fatal(err)
	}
	if ownWindow(pa) != ownWindow(pb) || ownFmax(pa) != ownFmax(pb) || ownVddMin(pa) != ownVddMin(pb) {
		t.Errorf("retargeted device differs from fresh device: %v/%v/%v vs %v/%v/%v",
			ownWindow(pa), ownFmax(pa), ownVddMin(pa),
			ownWindow(pb), ownFmax(pb), ownVddMin(pb))
	}
	if err := reused.Retarget(nil); err == nil {
		t.Error("Retarget(nil) accepted")
	}
}

// usableCells counts grid cells whose center is on the wafer by scanning
// the whole grid — the sizing rule NewWaferLot used before the row table.
func usableCells(side int) int {
	n := 0
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			if cx, cy := cellCenter(side, x, y); cx*cx+cy*cy <= waferEdge*waferEdge {
				n++
			}
		}
	}
	return n
}

// scanCellXY is the O(side²) layout walk the row table replaced: it
// rescans the grid in row-major order, skipping off-wafer cells, until it
// reaches die j. It is the oracle for WaferLot.cellXY.
func scanCellXY(side, j int) (float64, float64) {
	seen := 0
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			cx, cy := cellCenter(side, x, y)
			if cx*cx+cy*cy > waferEdge*waferEdge {
				continue
			}
			if seen == j {
				return cx, cy
			}
			seen++
		}
	}
	return 0, 0
}

// scanSide is the grid side NewWaferLot chose by rescanning the grid for
// every candidate side.
func scanSide(diesPerWafer int) int {
	side := int(math.Ceil(math.Sqrt(float64(diesPerWafer) / (math.Pi / 4))))
	if side < 1 {
		side = 1
	}
	for usableCells(side) < diesPerWafer {
		side++
	}
	return side
}

// oracleDie materializes die i the way Die did before the per-lot tables:
// the grid scan for its position and the wafer's coefficients (including
// the gradient's cos and sin) re-derived from the seed for every die.
func oracleDie(l *WaferLot, i int) *Die {
	wafer := i / l.perWafer
	wh := hashChain(uint64(l.seed), uint64(wafer))
	u := func(salt uint64) float64 { return unit(hashChain(wh, salt)) }
	gradAngle := u(1) * 2 * math.Pi
	gradSpeed := 0.4 + 0.4*u(2)
	radSpeed := 0.5 + 0.5*u(3)
	radLeak := 0.04 + 0.05*u(4)
	offSpeed := (u(5) - 0.5) * 0.8
	defect := 0.5 + u(6)

	x, y := scanCellXY(l.side, i%l.perWafer)
	r2 := x*x + y*y
	h := hashChain(uint64(l.seed), uint64(i)+0x9e3779b97f4a7c15)
	n1, n2 := gauss2(hashChain(h, 11))
	n3, n4 := gauss2(hashChain(h, 12))
	spatial := offSpeed - radSpeed*(r2-0.5) + gradSpeed*(x*math.Cos(gradAngle)+y*math.Sin(gradAngle))/2
	score := spatial + n1
	var corner Corner
	switch {
	case score > 0.84:
		corner = CornerFast
	case score < -0.84:
		corner = CornerSlow
	default:
		corner = CornerTypical
	}
	d := NewDie(i, corner)
	d.tdqOffsetNS += 0.35 * (0.6*score + 0.8*n2)
	d.speedFactor *= 1 - 0.02*(0.6*score+0.8*n3)
	d.leakageFactor *= 1 + radLeak*r2 + 0.05*n4
	defectP := 0.002 * defect * (1 + 3*r2)
	hd := hashChain(h, 13)
	if unit(hd) < defectP {
		WithWeakCell(uint32(hashChain(hd, 1)), 1.45+0.35*unit(hashChain(hd, 2)))(d)
	}
	return d
}

// checkLayoutAgainstScan asserts the lot picked the scan's grid side and
// places every within-wafer die on exactly the scan's (x, y) bits.
func checkLayoutAgainstScan(t *testing.T, diesPerWafer int) {
	t.Helper()
	l, err := NewWaferLot(1, 1, diesPerWafer)
	if err != nil {
		t.Fatal(err)
	}
	if want := scanSide(diesPerWafer); l.side != want {
		t.Fatalf("diesPerWafer %d: side %d, scan picks %d", diesPerWafer, l.side, want)
	}
	for j := 0; j < diesPerWafer; j++ {
		gx, gy := l.cellXY(j)
		wx, wy := scanCellXY(l.side, j)
		if math.Float64bits(gx) != math.Float64bits(wx) || math.Float64bits(gy) != math.Float64bits(wy) {
			t.Fatalf("diesPerWafer %d die %d: (%v, %v), scan (%v, %v)", diesPerWafer, j, gx, gy, wx, wy)
		}
	}
}

func TestWaferLayoutMatchesScan(t *testing.T) {
	for n := 1; n <= 600; n++ {
		checkLayoutAgainstScan(t, n)
	}
	checkLayoutAgainstScan(t, 2500)
	checkLayoutAgainstScan(t, 10000)
}

// Sizes that fill the grid exactly put the last die in the last on-wafer
// cell, the edge case of the row search. The check walks the grid once per
// size, comparing each on-wafer cell against the table in scan order.
func TestWaferLayoutMatchesScanAtExactFill(t *testing.T) {
	exact := 0
	for side := 1; usableCells(side) <= 10000; side++ {
		n := usableCells(side)
		if n == 0 {
			continue
		}
		l, err := NewWaferLot(1, 1, n)
		if err != nil {
			t.Fatal(err)
		}
		if want := scanSide(n); l.side != want {
			t.Fatalf("usableCells(%d) = %d dies: side %d, scan picks %d", side, n, l.side, want)
		}
		if l.side == side {
			exact++
		}
		seen := 0
		for y := 0; y < l.side; y++ {
			for x := 0; x < l.side && seen < n; x++ {
				cx, cy := cellCenter(l.side, x, y)
				if cx*cx+cy*cy > waferEdge*waferEdge {
					continue
				}
				gx, gy := l.cellXY(seen)
				if math.Float64bits(gx) != math.Float64bits(cx) || math.Float64bits(gy) != math.Float64bits(cy) {
					t.Fatalf("side %d die %d: (%v, %v), scan (%v, %v)", side, seen, gx, gy, cx, cy)
				}
				seen++
			}
		}
	}
	t.Logf("%d sizes fill their grid exactly", exact)
	if exact == 0 {
		t.Error("no size fills its grid exactly: the last-cell edge case went unchecked")
	}
}

func TestWaferLotDieMatchesOracle(t *testing.T) {
	l, err := NewWaferLot(78, 3, 2500)
	if err != nil {
		t.Fatal(err)
	}
	weak := 0
	for i := 0; i < l.Len(); i++ {
		got, want := l.Die(i), oracleDie(l, i)
		if got.Fingerprint() != want.Fingerprint() {
			t.Fatalf("Die(%d) fingerprint %#x, oracle %#x", i, got.Fingerprint(), want.Fingerprint())
		}
		weak += min(got.WeakCellCount(), 1)
	}
	if weak == 0 {
		t.Error("no weak die in the lot: the defect branch went unchecked")
	}
}

var dieSink *Die

// BenchmarkWaferLotDie materializes dies of a 4×2500 lot in lot order; a
// clean die costs one allocation (the *Die itself).
func BenchmarkWaferLotDie(b *testing.B) {
	l, err := NewWaferLot(1, 4, 2500)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dieSink = l.Die(i % l.Len())
	}
}
