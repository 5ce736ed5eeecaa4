// Package neural implements the feedforward networks of the paper's
// learning scheme (fig. 4): multilayer perceptrons trained with
// backpropagation, an iterative learnability/generalization check in the
// training loop, the multi-network voting machine the paper uses to judge
// classification confidence, and the weight-file serialization that carries
// the learned characterization knowledge into the optimization phase.
//
// The compute kernels are allocation-free in steady state: forward and
// backward passes run over flat row-major weight buffers into a Scratch
// arena sized once per topology. Callers own their arenas: one per
// goroutine, reused across every call (PredictInto, VoteInto, EvaluateWith).
// Buffer reuse never changes arithmetic order, so results are bit-identical
// to the naive per-call-allocation formulation.
package neural

import (
	"fmt"
	"math"
	"math/rand"
)

// Activation selects a layer nonlinearity.
type Activation uint8

const (
	// ActTanh is the hyperbolic tangent, the conventional hidden-layer
	// activation of 1990s MLP practice (Masters [14]).
	ActTanh Activation = iota
	// ActSigmoid is the logistic function, used on output layers whose
	// targets are membership grades in [0, 1].
	ActSigmoid
	// ActLinear is the identity.
	ActLinear
)

// String names the activation.
func (a Activation) String() string {
	switch a {
	case ActTanh:
		return "tanh"
	case ActSigmoid:
		return "sigmoid"
	case ActLinear:
		return "linear"
	default:
		return fmt.Sprintf("Activation(%d)", uint8(a))
	}
}

func (a Activation) apply(x float64) float64 {
	switch a {
	case ActTanh:
		return math.Tanh(x)
	case ActSigmoid:
		return 1 / (1 + math.Exp(-x))
	default:
		return x
	}
}

// derivFromOutput returns dσ/dx expressed in terms of the activation output
// y = σ(x), which backprop has at hand.
func (a Activation) derivFromOutput(y float64) float64 {
	switch a {
	case ActTanh:
		return 1 - y*y
	case ActSigmoid:
		return y * (1 - y)
	default:
		return 1
	}
}

// layer is one dense layer: out = act(W·in + b).
type layer struct {
	in, out int
	act     Activation
	// w is row-major [out][in]; b is [out].
	w []float64
	b []float64
}

// Network is a feedforward multilayer perceptron. Construct with New; the
// zero value is not usable. Not safe for concurrent training; PredictInto
// and EvaluateWith, each goroutine with its own Scratch, are safe for
// concurrent use only if no training runs concurrently.
type Network struct {
	sizes  []int
	layers []layer
}

// New builds an MLP with the given layer sizes (inputs first, outputs
// last), tanh hidden layers and a sigmoid output layer, initialized with
// Xavier/Glorot uniform weights drawn from the seeded source.
func New(seed int64, sizes ...int) (*Network, error) {
	if len(sizes) < 2 {
		return nil, fmt.Errorf("neural: need at least input and output sizes, got %v", sizes)
	}
	for i, s := range sizes {
		if s <= 0 {
			return nil, fmt.Errorf("neural: layer %d has non-positive size %d", i, s)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	n := &Network{sizes: append([]int(nil), sizes...)}
	for i := 1; i < len(sizes); i++ {
		act := ActTanh
		if i == len(sizes)-1 {
			act = ActSigmoid
		}
		l := layer{
			in:  sizes[i-1],
			out: sizes[i],
			act: act,
			w:   make([]float64, sizes[i]*sizes[i-1]),
			b:   make([]float64, sizes[i]),
		}
		// Xavier uniform: U(−√(6/(in+out)), +√(6/(in+out))).
		limit := math.Sqrt(6 / float64(l.in+l.out))
		for j := range l.w {
			l.w[j] = (rng.Float64()*2 - 1) * limit
		}
		n.layers = append(n.layers, l)
	}
	return n, nil
}

// Inputs returns the input-layer width.
func (n *Network) Inputs() int { return n.sizes[0] }

// Outputs returns the output-layer width.
func (n *Network) Outputs() int { return n.sizes[len(n.sizes)-1] }

// Sizes returns a copy of the layer sizes.
func (n *Network) Sizes() []int { return append([]int(nil), n.sizes...) }

// Scratch is the reusable per-goroutine workspace of one network topology:
// a flat activation arena for the forward pass and two ping-pong delta
// buffers for backprop, sized once. A Scratch may be reused across any
// number of calls — every buffer is fully overwritten — but must never be
// shared between concurrently running goroutines; give each worker its own
// (see internal/parallel's per-worker resource contract).
type Scratch struct {
	// acts[0] aliases the current input; acts[1:] are carved from buf.
	acts [][]float64
	buf  []float64
	// delta/prev are the backprop ping-pong buffers, sized to the widest
	// layer of the topology.
	delta []float64
	prev  []float64
}

// NewScratch allocates a workspace arena sized for this network's topology.
func (n *Network) NewScratch() *Scratch {
	total, widest := 0, 0
	for _, w := range n.sizes {
		if w > widest {
			widest = w
		}
	}
	for _, l := range n.layers {
		total += l.out
	}
	s := &Scratch{
		acts:  make([][]float64, len(n.layers)+1),
		buf:   make([]float64, total),
		delta: make([]float64, widest),
		prev:  make([]float64, widest),
	}
	off := 0
	for i, l := range n.layers {
		s.acts[i+1] = s.buf[off : off+l.out : off+l.out]
		off += l.out
	}
	return s
}

// fits reports whether the scratch was sized for this network's topology.
func (s *Scratch) fits(n *Network) bool {
	if s == nil || len(s.acts) != len(n.layers)+1 {
		return false
	}
	for i, l := range n.layers {
		if len(s.acts[i+1]) != l.out {
			return false
		}
	}
	widest := 0
	for _, w := range n.sizes {
		if w > widest {
			widest = w
		}
	}
	return len(s.delta) >= widest && len(s.prev) >= widest
}

// ensure rebuilds a mismatched scratch in place, so an arena built for one
// topology degrades gracefully (one realloc) instead of corrupting results
// when handed to a differently shaped network.
func (n *Network) ensure(s *Scratch) *Scratch {
	if !s.fits(n) {
		*s = *n.NewScratch()
	}
	return s
}

// forwardInto runs the forward pass with every layer activation stored in
// the scratch arena (acts[0] is the input itself, for backprop), returning
// the output activation. The returned slice is owned by the scratch and
// valid until its next use. Allocation-free.
func (n *Network) forwardInto(s *Scratch, input []float64) []float64 {
	n.ensure(s)
	s.acts[0] = input
	cur := input
	for li := range n.layers {
		l := &n.layers[li]
		next := s.acts[li+1]
		for o := 0; o < l.out; o++ {
			sum := l.b[o]
			row := l.w[o*l.in : (o+1)*l.in]
			for i, x := range cur {
				sum += row[i] * x
			}
			next[o] = l.act.apply(sum)
		}
		cur = next
	}
	return cur
}

// PredictInto runs the network on one input vector, writing the prediction
// into dst (length Outputs()) using the caller-owned scratch arena.
// Allocation-free; safe for concurrent use with one Scratch per goroutine.
func (n *Network) PredictInto(s *Scratch, input, dst []float64) error {
	if len(input) != n.Inputs() {
		return fmt.Errorf("neural: input width %d, network expects %d", len(input), n.Inputs())
	}
	if len(dst) != n.Outputs() {
		return fmt.Errorf("neural: output buffer width %d, network produces %d", len(dst), n.Outputs())
	}
	copy(dst, n.forwardInto(s, input))
	return nil
}

// MSE returns the mean squared error between two equal-length vectors.
func MSE(got, want []float64) float64 {
	if len(got) == 0 {
		return 0
	}
	var s float64
	for i := range got {
		d := got[i] - want[i]
		s += d * d
	}
	return s / float64(len(got))
}

// Clone returns an independent deep copy of the network.
func (n *Network) Clone() *Network {
	c := &Network{sizes: append([]int(nil), n.sizes...)}
	c.layers = make([]layer, len(n.layers))
	for i, l := range n.layers {
		c.layers[i] = layer{
			in: l.in, out: l.out, act: l.act,
			w: append([]float64(nil), l.w...),
			b: append([]float64(nil), l.b...),
		}
	}
	return c
}
