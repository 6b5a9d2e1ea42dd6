package core

import "testing"

// TestDefaultShardCountRule pins the sizing rule: 4× parallelism, rounded up
// to a power of two, clamped to [8, 256], and fed from GOMAXPROCS (not
// NumCPU) so a CPU-quota'd container does not over-stripe.
func TestDefaultShardCountRule(t *testing.T) {
	cases := []struct{ parallelism, want int }{
		{1, 8},   // floor
		{2, 8},   // 4×2 = 8, at the floor exactly
		{3, 16},  // 12 rounds up
		{4, 16},  // exact power of two
		{6, 32},  // 24 rounds up
		{16, 64}, // 4×16
		{64, 256},
		{100, 256}, // ceiling
		{512, 256}, // ceiling holds however large the host
	}
	for _, c := range cases {
		if got := defaultShardCountFor(c.parallelism); got != c.want {
			t.Errorf("defaultShardCountFor(%d) = %d, want %d", c.parallelism, got, c.want)
		}
	}
	// The zero-Options default must agree with the rule applied to the
	// live GOMAXPROCS value.
	m := NewManager(Options{})
	if got, want := m.SelfStats().Shards, defaultShardCount(); got != want {
		t.Errorf("default SelfStats().Shards = %d, want %d", got, want)
	}
}
