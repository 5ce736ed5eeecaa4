package neural_test

import (
	"bytes"
	"testing"

	"repro/internal/neural"
)

// FuzzWeightFileParse hammers the weight-file loader with arbitrary bytes.
// The contract: Load never panics; when it accepts a stream, the resulting
// ensemble must be fully usable — consistent shape accessors, a working
// forward pass, and a Save→Load round trip that reproduces the accepted
// ensemble's predictions.
func FuzzWeightFileParse(f *testing.F) {
	// A genuine weight file as the structured seed.
	if n, err := neural.New(1, 3, 4, 2); err == nil {
		if e, err := neural.FromNetworks([]*neural.Network{n}); err == nil {
			var buf bytes.Buffer
			if err := e.Save(&buf, map[string]string{"k": "v"}); err == nil {
				f.Add(buf.Bytes())
			}
		}
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"format":"ci-characterization-nn-weights","version":1,"members":[]}`))
	f.Add([]byte(`{"format":"ci-characterization-nn-weights","version":1,"members":[{"sizes":[1,1],"layers":[{"in":1,"out":1,"activation":"tanh","weights":[0],"biases":[0]}]}]}`))
	f.Add([]byte(`{"format":"ci-characterization-nn-weights","version":1,"members":[{"sizes":[2,1],"layers":[{"in":9,"out":9,"activation":"tanh","weights":[],"biases":[]}]}]}`))
	f.Add([]byte(`{"format":"wrong","version":1}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte{0xff, 0xfe, 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		e, meta, err := neural.Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		if e.Size() < 1 || e.Inputs() < 1 || e.Outputs() < 1 {
			t.Fatalf("accepted ensemble with degenerate shape: size=%d in=%d out=%d",
				e.Size(), e.Inputs(), e.Outputs())
		}
		in := make([]float64, e.Inputs())
		want, err := vote(e, in)
		if err != nil {
			t.Fatalf("accepted ensemble cannot predict: %v", err)
		}
		var buf bytes.Buffer
		if err := e.Save(&buf, meta); err != nil {
			t.Fatalf("accepted ensemble cannot re-save: %v", err)
		}
		back, _, err := neural.Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-saved ensemble rejected: %v", err)
		}
		got, err := vote(back, in)
		if err != nil {
			t.Fatalf("re-loaded ensemble cannot predict: %v", err)
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("prediction drifted across re-save: %v vs %v", want, got)
			}
		}
	})
}
