package main

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"pbox/internal/capture"
	"pbox/internal/core"
)

// configCases is the parseConfig table; FuzzParseConfig seeds from it.
var configCases = []struct {
	spec    string
	want    capture.Config // checked when wantErr is empty
	wantErr string         // substring of the expected error
}{
	{spec: "", want: capture.Config{Name: "base"}},
	{spec: "  base ", want: capture.Config{Name: "base"}},
	{spec: "level=2", want: capture.Config{Name: "level=2", RuleLevel: 2}},
	{spec: "name=strict,level=0.5", want: capture.Config{Name: "strict", RuleLevel: 0.5}},
	{spec: "threshold=0.8", want: capture.Config{Name: "threshold=0.8", Options: core.Options{PBoxLevelThreshold: 0.8}}},
	{spec: "alpha=7", want: capture.Config{Name: "alpha=7", Options: core.Options{Alpha: 7}}},
	{spec: "gapfactor=3.5", want: capture.Config{Name: "gapfactor=3.5", Options: core.Options{GapPolicyFactor: 3.5}}},
	{spec: "minpen=50us", want: capture.Config{Name: "minpen=50us", Options: core.Options{MinPenalty: 50 * time.Microsecond}}},
	{spec: "maxpen=5ms", want: capture.Config{Name: "maxpen=5ms", Options: core.Options{MaxPenalty: 5 * time.Millisecond}}},
	{spec: "fixed=1ms", want: capture.Config{Name: "fixed=1ms", Options: core.Options{FixedPenalty: time.Millisecond}}},
	{spec: "nodetect", want: capture.Config{Name: "nodetect", Options: core.Options{DisableDetection: true}}},
	{spec: "nopboxlevel", want: capture.Config{Name: "nopboxlevel", Options: core.Options{DisablePBoxLevel: true}}},
	{
		spec: " level=2 , fixed=1ms ,, nopboxlevel ",
		want: capture.Config{Name: "level=2 , fixed=1ms ,, nopboxlevel", RuleLevel: 2,
			Options: core.Options{FixedPenalty: time.Millisecond, DisablePBoxLevel: true}},
	},
	{spec: "level", wantErr: `config knob "level" needs a value`},
	{spec: "name", wantErr: `config knob "name" needs a value`},
	{spec: "level=2,fixed", wantErr: `config knob "fixed" needs a value`},
	{spec: "level=abc", wantErr: `config knob "level=abc"`},
	{spec: "shards=16", wantErr: `unknown config knob "shards"`},
	{spec: "level=2,spool=-1", wantErr: `unknown config knob "spool"`},
	{spec: "shards=99999999999", wantErr: `unknown config knob "shards"`},
	{spec: "fixed=10", wantErr: `config knob "fixed=10"`},
	{spec: "adaptive", wantErr: `unknown config knob "adaptive"`},
	{spec: "level=2,adaptive", wantErr: `unknown config knob "adaptive"`},
	{spec: "bogus=1", wantErr: `unknown config knob "bogus"`},
	{spec: "=1", wantErr: `unknown config knob ""`},
}

func TestParseConfig(t *testing.T) {
	for _, c := range configCases {
		got, err := parseConfig(c.spec)
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("parseConfig(%q) error = %v, want it to contain %q", c.spec, err, c.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseConfig(%q): %v", c.spec, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseConfig(%q) = %+v, want %+v", c.spec, got, c.want)
		}
	}
}

func TestParseGrid(t *testing.T) {
	grid, err := parseGrid(defaultGrid)
	if err != nil {
		t.Fatalf("parseGrid(defaultGrid): %v", err)
	}
	var names []string
	for _, cfg := range grid {
		names = append(names, cfg.Name)
	}
	if want := []string{"base", "level=2", "level=16", "level=128", "nodetect"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("default grid names = %q, want %q", names, want)
	}
	if grid[0].RuleLevel != 0 || grid[2].RuleLevel != 16 || !grid[4].Options.DisableDetection {
		t.Fatalf("default grid parsed wrong: %+v", grid)
	}
	// An empty part is the base config; one bad part fails the whole grid.
	if grid, err = parseGrid("level=2;"); err != nil || len(grid) != 2 || grid[1].Name != "base" {
		t.Fatalf(`parseGrid("level=2;") = %+v, %v`, grid, err)
	}
	if _, err = parseGrid("base; adaptive"); err == nil || !strings.Contains(err.Error(), "unknown config knob") {
		t.Fatalf(`parseGrid("base; adaptive") error = %v, want unknown config knob`, err)
	}
}

// FuzzParseConfig feeds the knob parser arbitrary operator input: it must
// never panic, a grid must yield one config per ';'-separated part, and an
// accepted spec must parse to the same config as a one-part grid.
func FuzzParseConfig(f *testing.F) {
	for _, c := range configCases {
		f.Add(c.spec)
	}
	f.Add(defaultGrid)
	f.Fuzz(func(t *testing.T, spec string) {
		cfg, err := parseConfig(spec)
		grid, gerr := parseGrid(spec)
		if gerr == nil && len(grid) != strings.Count(spec, ";")+1 {
			t.Fatalf("parseGrid(%q) returned %d configs, want %d", spec, len(grid), strings.Count(spec, ";")+1)
		}
		if err != nil || strings.Contains(spec, ";") {
			return
		}
		if gerr != nil || !reflect.DeepEqual(grid[0], cfg) {
			t.Fatalf("parseGrid(%q) = (%+v, %v), want the single config %+v", spec, grid, gerr, cfg)
		}
	})
}
