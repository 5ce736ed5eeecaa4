package fuzzy

import "fmt"

// Clause is one "<variable> is <term>" proposition.
type Clause struct {
	Variable string
	Term     string
}

// Rule is a Mamdani rule: IF every antecedent clause holds (min AND) THEN
// the consequent term of the output variable fires at the rule strength.
// The paper's example reads "if A and B and C, then D is quite close to the
// limit of the target device-spec" (§5).
type Rule struct {
	If   []Clause
	Then Clause
	// Weight scales the rule strength; zero means 1.
	Weight float64
}

// Engine is a small Mamdani inference engine over named variables.
type Engine struct {
	inputs map[string]*Variable
	output *Variable
	rules  []Rule
}

// NewEngine creates an engine producing values of the output variable.
func NewEngine(output *Variable) (*Engine, error) {
	if output == nil {
		return nil, fmt.Errorf("fuzzy: engine needs an output variable")
	}
	if err := output.Validate(); err != nil {
		return nil, err
	}
	return &Engine{
		inputs: make(map[string]*Variable),
		output: output,
	}, nil
}

// AddInput registers an input variable.
func (e *Engine) AddInput(v *Variable) error {
	if v == nil {
		return fmt.Errorf("fuzzy: nil input variable")
	}
	if err := v.Validate(); err != nil {
		return err
	}
	if _, dup := e.inputs[v.Name]; dup {
		return fmt.Errorf("fuzzy: duplicate input variable %q", v.Name)
	}
	e.inputs[v.Name] = v
	return nil
}

// AddRule registers a rule after validating every clause against the
// registered variables.
func (e *Engine) AddRule(r Rule) error {
	if len(r.If) == 0 {
		return fmt.Errorf("fuzzy: rule with empty antecedent")
	}
	for _, c := range r.If {
		v, ok := e.inputs[c.Variable]
		if !ok {
			return fmt.Errorf("fuzzy: rule references unknown input %q", c.Variable)
		}
		if v.TermIndex(c.Term) < 0 {
			return fmt.Errorf("fuzzy: input %q has no term %q", c.Variable, c.Term)
		}
	}
	if r.Then.Variable != e.output.Name {
		return fmt.Errorf("fuzzy: rule consequent variable %q is not the output %q", r.Then.Variable, e.output.Name)
	}
	if e.output.TermIndex(r.Then.Term) < 0 {
		return fmt.Errorf("fuzzy: output has no term %q", r.Then.Term)
	}
	e.rules = append(e.rules, r)
	return nil
}

// Infer runs Mamdani inference for the crisp inputs and returns the output
// term grade vector (max-aggregated rule strengths per output term).
func (e *Engine) Infer(inputs map[string]float64) ([]float64, error) {
	grades := make([]float64, len(e.output.Terms))
	for _, r := range e.rules {
		strength := 1.0
		for _, c := range r.If {
			v := e.inputs[c.Variable]
			x, ok := inputs[c.Variable]
			if !ok {
				return nil, fmt.Errorf("fuzzy: missing input %q", c.Variable)
			}
			g := v.Terms[v.TermIndex(c.Term)].MF.Grade(x)
			if g < strength {
				strength = g // min AND
			}
		}
		if r.Weight > 0 {
			strength *= r.Weight
		}
		idx := e.output.TermIndex(r.Then.Term)
		if strength > grades[idx] {
			grades[idx] = strength // max aggregation
		}
	}
	return grades, nil
}
