// Property-based invariants for the neural layer, generated by
// internal/proptest: weight-file round-trip closure (Save→Load→Save is
// byte-identical and prediction-preserving) and agreement between the
// zero-allocation forward kernels and an independent reference
// implementation reconstructed from nothing but the serialized weight
// file.
package neural_test

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/neural"
	"repro/internal/proptest"
)

// genEnsemble draws a random untrained ensemble: 1–4 Xavier-initialized
// members of one generated topology.
func genEnsemble(pt *proptest.T) *neural.Ensemble {
	sizes := proptest.GenTopology(pt, pt.IntRange(1, 12), pt.IntRange(1, 6))
	members := make([]*neural.Network, pt.IntRange(1, 4))
	for i := range members {
		n, err := neural.New(pt.Int64Range(-1<<40, 1<<40), sizes...)
		if err != nil {
			pt.Fatalf("New(%v): %v", sizes, err)
		}
		members[i] = n
	}
	e, err := neural.FromNetworks(members)
	if err != nil {
		pt.Fatalf("FromNetworks: %v", err)
	}
	return e
}

// vote runs the ensemble on one input through a fresh scratch arena, so the
// returned prediction is the caller's to keep.
func vote(e *neural.Ensemble, in []float64) ([]float64, error) {
	avg, _, err := e.VoteInto(e.NewScratch(), in)
	return avg, err
}

func genInput(pt *proptest.T, width int) []float64 {
	in := make([]float64, width)
	for i := range in {
		in[i] = pt.Float64Range(-5, 5)
	}
	return in
}

// TestWeightFileRoundTripClosure: serializing an ensemble, loading it back
// and serializing again must reproduce the first byte stream exactly, and
// the loaded ensemble must predict bit-identically to the original. This
// is the closure property that lets weight files travel between the
// learning and optimization phases (fig. 4 step 5) without drift.
func TestWeightFileRoundTripClosure(t *testing.T) {
	proptest.Check(t, 60, func(pt *proptest.T) {
		e := genEnsemble(pt)
		meta := map[string]string{"trained": "no", "purpose": "proptest"}
		pt.Logf("members=%d inputs=%d outputs=%d", e.Size(), e.Inputs(), e.Outputs())

		var first bytes.Buffer
		if err := e.Save(&first, meta); err != nil {
			pt.Fatalf("Save: %v", err)
		}
		loaded, gotMeta, err := neural.Load(bytes.NewReader(first.Bytes()))
		if err != nil {
			pt.Fatalf("Load: %v", err)
		}
		if gotMeta["trained"] != "no" || gotMeta["purpose"] != "proptest" {
			pt.Errorf("metadata lost in round trip: %v", gotMeta)
		}
		var second bytes.Buffer
		if err := loaded.Save(&second, gotMeta); err != nil {
			pt.Fatalf("second Save: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			pt.Errorf("Save→Load→Save is not closed: %d vs %d bytes differ",
				first.Len(), second.Len())
		}

		in := genInput(pt, e.Inputs())
		want, err := vote(e, in)
		if err != nil {
			pt.Fatalf("vote original: %v", err)
		}
		got, err := vote(loaded, in)
		if err != nil {
			pt.Fatalf("vote loaded: %v", err)
		}
		for i := range want {
			if want[i] != got[i] {
				pt.Errorf("output %d drifted across round trip: %v vs %v", i, want[i], got[i])
			}
		}
	})
}

// weight-file mirror structs: the reference implementation below is
// reconstructed purely from the serialized JSON, deliberately sharing no
// code with package neural.
type wfMirror struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	Members []struct {
		Sizes  []int `json:"sizes"`
		Layers []struct {
			In         int       `json:"in"`
			Out        int       `json:"out"`
			Activation string    `json:"activation"`
			Weights    []float64 `json:"weights"`
			Biases     []float64 `json:"biases"`
		} `json:"layers"`
	} `json:"members"`
}

func (wf *wfMirror) forward(member int, input []float64) []float64 {
	cur := input
	for _, l := range wf.Members[member].Layers {
		next := make([]float64, l.Out)
		for o := 0; o < l.Out; o++ {
			sum := l.Biases[o]
			for i := 0; i < l.In; i++ {
				sum += l.Weights[o*l.In+i] * cur[i]
			}
			switch l.Activation {
			case "tanh":
				sum = math.Tanh(sum)
			case "sigmoid":
				sum = 1 / (1 + math.Exp(-sum))
			}
			next[o] = sum
		}
		cur = next
	}
	return cur
}

// TestForwardKernelMatchesWeightFileReference: the optimized scratch-arena
// forward pass must agree bit-for-bit with a naive textbook MLP evaluation
// driven by nothing but the weight file — pinning both the kernel
// arithmetic and the completeness of the serialization (every number the
// forward pass consumes is in the file).
func TestForwardKernelMatchesWeightFileReference(t *testing.T) {
	proptest.Check(t, 60, func(pt *proptest.T) {
		e := genEnsemble(pt)
		pt.Logf("members=%d inputs=%d outputs=%d", e.Size(), e.Inputs(), e.Outputs())

		var buf bytes.Buffer
		if err := e.Save(&buf, nil); err != nil {
			pt.Fatalf("Save: %v", err)
		}
		var wf wfMirror
		if err := json.Unmarshal(buf.Bytes(), &wf); err != nil {
			pt.Fatalf("weight file is not valid JSON: %v", err)
		}
		if wf.Format != "ci-characterization-nn-weights" || wf.Version != 1 {
			pt.Fatalf("unexpected header %q v%d", wf.Format, wf.Version)
		}
		if len(wf.Members) != e.Size() {
			pt.Fatalf("weight file has %d members, ensemble %d", len(wf.Members), e.Size())
		}

		in := genInput(pt, e.Inputs())
		got := make([]float64, e.Outputs())
		for m, net := range e.Members() {
			if err := net.PredictInto(net.NewScratch(), in, got); err != nil {
				pt.Fatalf("member %d PredictInto: %v", m, err)
			}
			want := wf.forward(m, in)
			for i := range want {
				if got[i] != want[i] {
					pt.Errorf("member %d output %d: kernel %v, reference %v", m, i, got[i], want[i])
				}
			}
		}
	})
}

// TestBatchAndScratchPathsAgreeWithPredict: a batch swept through one
// reused EnsembleScratch (what each ProposeSeeds worker does) must vote
// bit-identically to a fresh scratch per input and to the members'
// PredictInto outputs averaged here, with the confidence recomputed from
// them, across generated topologies and batch sizes.
func TestBatchAndScratchPathsAgreeWithPredict(t *testing.T) {
	proptest.Check(t, 40, func(pt *proptest.T) {
		e := genEnsemble(pt)
		batch := make([][]float64, pt.IntRange(1, 12))
		for i := range batch {
			batch[i] = genInput(pt, e.Inputs())
		}
		pt.Logf("members=%d inputs=%d batch=%d", e.Size(), e.Inputs(), len(batch))

		members := e.Members()
		preds := make([][]float64, len(members))
		for i := range preds {
			preds[i] = make([]float64, e.Outputs())
		}
		shared := e.NewScratch()
		for bi, in := range batch {
			avg, conf, err := e.VoteInto(shared, in)
			if err != nil {
				pt.Fatalf("VoteInto: %v", err)
			}
			fresh, freshConf, err := e.VoteInto(e.NewScratch(), in)
			if err != nil {
				pt.Fatalf("VoteInto fresh: %v", err)
			}
			want := make([]float64, e.Outputs())
			for i, m := range members {
				if err := m.PredictInto(m.NewScratch(), in, preds[i]); err != nil {
					pt.Fatalf("member %d PredictInto: %v", i, err)
				}
				for j, v := range preds[i] {
					want[j] += v
				}
			}
			for j := range want {
				want[j] /= float64(len(members))
			}
			var spread float64
			for _, p := range preds {
				spread += math.Sqrt(neural.MSE(p, want))
			}
			spread /= float64(len(members))
			wantConf := 1 / (1 + spread*10)

			if conf != wantConf || freshConf != wantConf {
				pt.Errorf("row %d confidence: shared %v, fresh %v, from members %v", bi, conf, freshConf, wantConf)
			}
			for i := range want {
				if avg[i] != want[i] || fresh[i] != want[i] {
					pt.Errorf("row %d output %d: shared %v, fresh %v, member mean %v", bi, i, avg[i], fresh[i], want[i])
				}
			}
		}
	})
}
