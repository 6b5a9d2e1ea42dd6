package cases

import (
	"testing"
	"time"

	"pbox/internal/core"
)

func TestCatalogComplete(t *testing.T) {
	cat := Catalog()
	if len(cat) != 16 {
		t.Fatalf("catalog has %d cases, want 16", len(cat))
	}
	apps := map[string]int{}
	seen := map[string]bool{}
	for i, c := range cat {
		if c.ID == "" || c.Desc == "" || c.Resource == "" || c.Scenario == nil {
			t.Fatalf("case %d incomplete: %+v", i, c)
		}
		if seen[c.ID] {
			t.Fatalf("duplicate case id %s", c.ID)
		}
		seen[c.ID] = true
		if c.PaperLevel <= 0 {
			t.Fatalf("case %s missing paper interference level", c.ID)
		}
		apps[c.App]++
	}
	// Table 3's distribution: 5 MySQL, 5 PostgreSQL, 3 Apache, 2 Varnish,
	// 1 Memcached.
	want := map[string]int{"MySQL": 5, "PostgreSQL": 5, "Apache": 3, "Varnish": 2, "Memcached": 1}
	for app, n := range want {
		if apps[app] != n {
			t.Fatalf("%s has %d cases, want %d", app, apps[app], n)
		}
	}
}

func TestByID(t *testing.T) {
	c, ok := ByID("c5")
	if !ok || c.ID != "c5" || c.App != "MySQL" {
		t.Fatalf("ByID(c5) = %+v, %v", c, ok)
	}
	if _, ok := ByID("c99"); ok {
		t.Fatal("ByID(c99) succeeded")
	}
}

func TestEventDrivenFlags(t *testing.T) {
	for _, id := range []string{"c14", "c15", "c16"} {
		c, _ := ByID(id)
		if !c.EventDriven {
			t.Fatalf("%s should be event-driven", id)
		}
	}
	for _, id := range []string{"c1", "c6", "c11"} {
		c, _ := ByID(id)
		if c.EventDriven {
			t.Fatalf("%s should not be event-driven", id)
		}
	}
}

func TestRunVanillaProducesSamples(t *testing.T) {
	c, _ := ByID("c1")
	out := Run(c, RunConfig{Solution: SolutionNone, Interference: false, Duration: 60 * time.Millisecond})
	if out.Victim.Count == 0 {
		t.Fatal("no victim samples recorded")
	}
	if out.Actions != 0 {
		t.Fatalf("vanilla run reported %d actions", out.Actions)
	}
	if out.Noisy.Count != 0 {
		t.Fatal("noisy samples recorded without interference")
	}
}

func TestRunAllSolutionsConstruct(t *testing.T) {
	c, _ := ByID("c2")
	for _, sol := range append(Solutions(), SolutionNone) {
		out := Run(c, RunConfig{Solution: sol, Interference: true, Duration: 40 * time.Millisecond})
		if out.Victim.Count == 0 {
			t.Fatalf("solution %s recorded no samples", sol)
		}
	}
}

func TestRunUnknownSolutionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown solution")
		}
	}()
	c, _ := ByID("c1")
	Run(c, RunConfig{Solution: "bogus", Interference: false, Duration: 10 * time.Millisecond})
}

func TestRunCustomRule(t *testing.T) {
	c, _ := ByID("c2")
	out := Run(c, RunConfig{
		Solution: SolutionPBox, Interference: true, Duration: 40 * time.Millisecond,
		Rule: core.IsolationRule{Type: core.Relative, Level: 1.25, Metric: core.MetricAverage},
	})
	if out.Victim.Count == 0 {
		t.Fatal("no samples with custom rule")
	}
}
