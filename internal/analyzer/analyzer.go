// Package analyzer is a small rule-based planning pipeline in the style
// of go-mysql-server's sql/analyzer: a plan passes through a fixed
// sequence of phases, each phase a list of small, individually-testable
// rules. Rules are plain functions over a caller-defined plan type P —
// the framework owns only sequencing, cooperative cancellation between
// rules and position-wrapped error propagation.
//
// The SUDAF query planner (internal/core) is its one instantiation:
// queryPipeline, with phases resolve → canonicalize → share → fuse →
// parallelize → distribute. Every aggregate statement — windowed ones
// included — runs the whole pipeline; the batch planner and EXPLAIN run
// its resolve/canonicalize front (RunThrough) on the same plan type, so
// they see exactly the data plan and bound states execution will.
package analyzer

import (
	"context"
	"fmt"
)

// Rule is one atomic planning step. Apply mutates the plan in place; a
// returned error aborts the pipeline.
type Rule[P any] struct {
	Name  string
	Apply func(ctx context.Context, p P) error
}

// Phase is a named list of rules applied in order.
type Phase[P any] struct {
	Name  string
	Rules []Rule[P]
}

// Pipeline is a fixed sequence of phases.
type Pipeline[P any] struct {
	Phases []Phase[P]
}

// Run applies every phase's rules in order. Between rules it polls ctx,
// so a canceled query stops at the next rule boundary. The first error
// aborts and is returned wrapped with the phase/rule position.
func (pl *Pipeline[P]) Run(ctx context.Context, p P) error {
	return pl.RunThrough(ctx, p, "")
}

// RunThrough is Run stopped after the named phase: planners that need
// only the pipeline's front (resolution and canonicalization, say) run
// the same rules execution does instead of re-deriving their outputs.
// An empty or unknown phase name runs every phase.
func (pl *Pipeline[P]) RunThrough(ctx context.Context, p P, last string) error {
	for _, ph := range pl.Phases {
		for _, r := range ph.Rules {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := r.Apply(ctx, p); err != nil {
				return fmt.Errorf("analyzer %s/%s: %w", ph.Name, r.Name, err)
			}
		}
		if ph.Name == last {
			break
		}
	}
	return nil
}

// Rule returns the named rule (phase-qualified as "phase/rule"), for
// tests that exercise one rule in isolation.
func (pl *Pipeline[P]) Rule(phase, rule string) (Rule[P], bool) {
	for _, ph := range pl.Phases {
		if ph.Name != phase {
			continue
		}
		for _, r := range ph.Rules {
			if r.Name == rule {
				return r, true
			}
		}
	}
	return Rule[P]{}, false
}

// PhaseNames lists the pipeline's phase names in order.
func (pl *Pipeline[P]) PhaseNames() []string {
	out := make([]string, len(pl.Phases))
	for i, ph := range pl.Phases {
		out[i] = ph.Name
	}
	return out
}
