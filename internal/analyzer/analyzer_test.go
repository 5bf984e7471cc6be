package analyzer

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

type testPlan struct {
	log []string
}

func appendRule(name string) Rule[*testPlan] {
	return Rule[*testPlan]{Name: name, Apply: func(_ context.Context, p *testPlan) error {
		p.log = append(p.log, name)
		return nil
	}}
}

func testPipeline(extra ...Rule[*testPlan]) *Pipeline[*testPlan] {
	return &Pipeline[*testPlan]{Phases: []Phase[*testPlan]{
		{Name: "resolve", Rules: []Rule[*testPlan]{appendRule("a"), appendRule("b")}},
		{Name: "fuse", Rules: append([]Rule[*testPlan]{appendRule("c")}, extra...)},
	}}
}

func TestRunAppliesRulesInOrder(t *testing.T) {
	p := &testPlan{}
	if err := testPipeline().Run(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	want := "[a b c]"
	if got := fmt.Sprint(p.log); got != want {
		t.Fatalf("rule order = %s, want %s", got, want)
	}
}

func TestRunThroughStopsAfterNamedPhase(t *testing.T) {
	p := &testPlan{}
	if err := testPipeline().RunThrough(context.Background(), p, "resolve"); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(p.log); got != "[a b]" {
		t.Fatalf("front rules = %s, want [a b]", got)
	}
}

func TestRunStopsOnError(t *testing.T) {
	boom := errors.New("boom")
	bad := Rule[*testPlan]{Name: "bad", Apply: func(_ context.Context, p *testPlan) error {
		return boom
	}}
	pl := &Pipeline[*testPlan]{Phases: []Phase[*testPlan]{
		{Name: "resolve", Rules: []Rule[*testPlan]{appendRule("a"), bad, appendRule("never")}},
	}}
	p := &testPlan{}
	err := pl.Run(context.Background(), p)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	// Position is part of the error, so failures name the rule.
	if got := err.Error(); got != "analyzer resolve/bad: boom" {
		t.Fatalf("err text = %q", got)
	}
	if fmt.Sprint(p.log) != "[a]" {
		t.Fatalf("rules after the failure ran: %v", p.log)
	}
}

func TestRunPollsContextBetweenRules(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	trip := Rule[*testPlan]{Name: "trip", Apply: func(_ context.Context, p *testPlan) error {
		p.log = append(p.log, "trip")
		cancel() // cancel mid-pipeline; the next rule boundary must stop
		return nil
	}}
	pl := &Pipeline[*testPlan]{Phases: []Phase[*testPlan]{
		{Name: "resolve", Rules: []Rule[*testPlan]{trip, appendRule("never")}},
	}}
	p := &testPlan{}
	err := pl.Run(ctx, p)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if fmt.Sprint(p.log) != "[trip]" {
		t.Fatalf("log = %v", p.log)
	}
}

func TestRuleLookupAndPhaseNames(t *testing.T) {
	pl := testPipeline()
	if got := fmt.Sprint(pl.PhaseNames()); got != "[resolve fuse]" {
		t.Fatalf("PhaseNames = %s", got)
	}
	r, ok := pl.Rule("fuse", "c")
	if !ok || r.Name != "c" {
		t.Fatalf("Rule lookup failed: %v %v", r, ok)
	}
	if _, ok := pl.Rule("fuse", "zzz"); ok {
		t.Fatal("lookup of unknown rule must fail")
	}
}
