// Package capture records everything the pBox manager sees as an always-on
// binary event log, for forensics: what happened, in what order, on the
// manager's clock.
//
//   - Recorder (writer.go) — a core.RecordSink on the observer chain that
//     streams the full event log (state events with manager-clock
//     timestamps, lifecycle transitions, verdicts) to disk in a compact
//     varint/delta-encoded binary format, with an async double-buffered
//     writer, a bounded queue (overflow increments a drop counter instead of
//     blocking the hot path), and crash-safe segment rotation.
//
//   - ReadLog (reader.go) — decodes a log directory or segment back into the
//     core.Record values the Recorder saw, tolerating a torn tail.
//
// A log holds exactly the records a core.RecordSink at the Recorder's place in
// the chain receives; writer_test.go holds the two equal. What another
// configuration of the detector would have done is not read from a log: the
// case lab (internal/cases) re-executes the cases closed loop instead.
package capture

import "pbox/internal/core"

// maxKind is the highest record kind the on-disk format stores (the numbering
// is core.Kind's). core.KindServedFor is not logged: KindServed already
// carries the slept duration.
const maxKind = core.KindShared

// timestamped reports whether the record kind carries an At field on disk
// (these participate in the delta chain).
func timestamped(k core.Kind) bool {
	return k == core.KindActivate || k == core.KindFreeze || k == core.KindState
}
