package core

// Cache-line padding helpers (DESIGN.md §13). The manager's hottest shared
// state — the contention-slot table, the shard stripes, the per-worker spool
// headers — is written by many OS threads at once. Two logically independent
// 8-byte fields that land on one coherence line turn that independence into
// a cache-line ping-pong: every write by one core invalidates the line in
// every other core's cache, and the "uncontended" paths serialize on the
// memory system instead of on locks. The helpers here space such fields a
// full line apart so independence in the locking design stays independence
// in the hardware.
//
// The cost is memory only: padding the 1024-slot contention table grows it
// from 8 KiB to 64 KiB per manager, and each shard/spool grows by at most
// two lines.

// cacheLineSize is the assumed coherence granularity. 64 bytes is correct
// for every amd64 and the common arm64 server parts; on the rare 128-byte
// platforms the padding is half-effective but never wrong.
const cacheLineSize = 64

// cacheLinePad is an anonymous spacer field: placing one between two field
// groups guarantees the groups do not share a line (the second group may
// still share its line with whatever follows the struct in memory, which is
// why hot structs also end with one).
type cacheLinePad [cacheLineSize]byte

// padWords is the slot stride, in 8-byte words, that places consecutive
// contention-table slots on distinct cache lines.
const padWords = cacheLineSize / 8
