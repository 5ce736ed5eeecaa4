package neural

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/frame"
)

// WeightFile is the serialized form of a trained ensemble — the "NN weight
// file" of fig. 4 step 5 that carries the learned characterization into the
// optimization phase "based on only software computation without
// measurement."
type WeightFile struct {
	Format   string            `json:"format"`
	Version  int               `json:"version"`
	Comment  string            `json:"comment,omitempty"`
	Members  []networkJSON     `json:"members"`
	Metadata map[string]string `json:"metadata,omitempty"`
}

type networkJSON struct {
	Sizes  []int       `json:"sizes"`
	Layers []layerJSON `json:"layers"`
}

type layerJSON struct {
	In         int       `json:"in"`
	Out        int       `json:"out"`
	Activation string    `json:"activation"`
	Weights    []float64 `json:"weights"`
	Biases     []float64 `json:"biases"`
}

const (
	weightFileFormat  = "ci-characterization-nn-weights"
	weightFileVersion = 1
)

func activationFromString(s string) (Activation, error) {
	switch s {
	case "tanh":
		return ActTanh, nil
	case "sigmoid":
		return ActSigmoid, nil
	case "linear":
		return ActLinear, nil
	default:
		return 0, fmt.Errorf("neural: unknown activation %q", s)
	}
}

// Save writes the ensemble to w as a weight file.
func (e *Ensemble) Save(w io.Writer, metadata map[string]string) error {
	wf := WeightFile{
		Format:   weightFileFormat,
		Version:  weightFileVersion,
		Metadata: metadata,
	}
	for _, m := range e.members {
		nj := networkJSON{Sizes: m.Sizes()}
		for _, l := range m.layers {
			nj.Layers = append(nj.Layers, layerJSON{
				In: l.in, Out: l.out,
				Activation: l.act.String(),
				Weights:    l.w,
				Biases:     l.b,
			})
		}
		wf.Members = append(wf.Members, nj)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(wf)
}

// SaveFile atomically replaces the named file with the weight file. The
// ensemble is rendered in memory first, so a failed encode (a diverged NaN
// weight) leaves the previous file untouched.
func (e *Ensemble) SaveFile(path string, metadata map[string]string) error {
	var buf bytes.Buffer
	if err := e.Save(&buf, metadata); err != nil {
		return err
	}
	return frame.Publish(path, buf.Bytes())
}

// Load reads a weight file and reconstructs the ensemble and its metadata.
func Load(r io.Reader) (*Ensemble, map[string]string, error) {
	var wf WeightFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&wf); err != nil {
		return nil, nil, fmt.Errorf("neural: decoding weight file: %w", err)
	}
	if wf.Format != weightFileFormat {
		return nil, nil, fmt.Errorf("neural: not a weight file (format %q)", wf.Format)
	}
	if wf.Version != weightFileVersion {
		return nil, nil, fmt.Errorf("neural: unsupported weight file version %d", wf.Version)
	}
	if len(wf.Members) == 0 {
		return nil, nil, fmt.Errorf("neural: weight file has no member networks")
	}
	members := make([]*Network, 0, len(wf.Members))
	for mi, nj := range wf.Members {
		if len(nj.Sizes) < 2 {
			return nil, nil, fmt.Errorf("neural: member %d has invalid sizes %v", mi, nj.Sizes)
		}
		if len(nj.Layers) != len(nj.Sizes)-1 {
			return nil, nil, fmt.Errorf("neural: member %d has %d layers for %d sizes", mi, len(nj.Layers), len(nj.Sizes))
		}
		n := &Network{sizes: append([]int(nil), nj.Sizes...)}
		for li, lj := range nj.Layers {
			if lj.In != nj.Sizes[li] || lj.Out != nj.Sizes[li+1] {
				return nil, nil, fmt.Errorf("neural: member %d layer %d shape mismatch", mi, li)
			}
			if len(lj.Weights) != lj.In*lj.Out || len(lj.Biases) != lj.Out {
				return nil, nil, fmt.Errorf("neural: member %d layer %d weight count mismatch", mi, li)
			}
			act, err := activationFromString(lj.Activation)
			if err != nil {
				return nil, nil, err
			}
			n.layers = append(n.layers, layer{
				in: lj.In, out: lj.Out, act: act,
				w: append([]float64(nil), lj.Weights...),
				b: append([]float64(nil), lj.Biases...),
			})
		}
		members = append(members, n)
	}
	e, err := FromNetworks(members)
	if err != nil {
		return nil, nil, err
	}
	return e, wf.Metadata, nil
}

// LoadFile reads a weight file from the named path.
func LoadFile(path string) (*Ensemble, map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return Load(f)
}
