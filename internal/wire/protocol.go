// Package wire implements pboxd's batched binary ingestion protocol: the
// out-of-process equivalent of the in-process Worker.Update hot path, built
// so external applications can feed a Manager state events at millions of
// events per second over a handful of TCP connections (DESIGN.md §15).
//
// The encoding reuses the internal/capture codec vocabulary — unsigned
// varints for ids and enums, signed zigzag varints for deltas — inside
// length-prefixed frames:
//
//	stream   = preamble *frame
//	preamble = "PBOXWIRE" 0x01                      (client → server, once)
//	frame    = uvarint(len) payload                 (len ≤ MaxFrame)
//	payload  = *op
//	op       = 0x01 tenant ruleType metric float64bits(level) len label…   register
//	         | 0x02 tenant                                                 release
//	         | 0x03 tenant                                                 activate
//	         | 0x04 tenant                                                 freeze
//	         | 0x05 tenant flag                                            shared
//	         | 0x06 tenant                                                 select
//	         | 0x07 seq                                                    ping
//	         | 0x08                      reserved (was hibernate): a protocol error
//	         | (0x10|EventType) zigzag(key − prevKey)                      event
//	reply    = uvarint(len) 0x07 seq events shedConn shedGlobal            pong
//
// Tenant ids are client-chosen uint64s, scoped to the connection. An event
// op applies to the tenant named by the last select op and encodes its
// resource key as a zigzag delta against the previous event op in the same
// frame — the chain resets at every frame boundary, exactly like the capture
// codec's per-segment timestamp chain, so any frame decodes standalone.
//
// Events are fire-and-forget; only ping produces a reply, written after
// every earlier op in its frame has been applied, so a ping round-trip is a
// full ingestion barrier (the differential tests and the daemon benchmark's
// latency probe both lean on this).
package wire

const (
	// Magic is the 8-byte stream preamble a client sends at connect.
	Magic = "PBOXWIRE"
	// Version is the protocol version byte following the magic.
	Version = 1
	// MaxFrame bounds a frame payload; larger length prefixes are a
	// protocol error (they are far more likely a desynchronized or hostile
	// peer than a real batch).
	MaxFrame = 1 << 20
)

// Op kinds. Like the capture codec's record kinds, existing values are never
// renumbered or reused; new ops append. 0x08 is retired.
const (
	opRegister = 0x01
	opRelease  = 0x02
	opActivate = 0x03
	opFreeze   = 0x04
	opShared   = 0x05
	opSelect   = 0x06
	opPing     = 0x07

	// opEventBase marks event ops: the low bits carry the core.EventType
	// (0x10 PREPARE, 0x11 ENTER, 0x12 HOLD, 0x13 UNHOLD).
	opEventBase = 0x10
	opEventMax  = opEventBase + 3
)
