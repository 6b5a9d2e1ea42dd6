//go:build !linux || !amd64

package exec

// rdtsc is never called here: tscUsable is false off linux/amd64.
func rdtsc() uint64 { return 0 }

func tscUsable() bool { return false }
