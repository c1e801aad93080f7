// Package sizebudget is the failing fixture for the sizebudget analyzer.
// The two *Grown structs mirror the repo's budgeted hot structs —
// sim's event, pinned at 32 bytes, and sched.Item, pinned at 24 — with one
// field added, proving the analyzer fails the exact change the budgets
// exist to catch. Sizes are for 64-bit gc targets (the analyzer is silent
// on 32-bit, and the harness skips there).
package sizebudget

// eventOK matches sim's event layout and its declared budget: clean.
//
//p3:sizebudget 32
type eventOK struct {
	at    int64
	sched int64
	ord   uint64
	fn    func()
}

// eventGrown is eventOK plus one field — the regression the budget on
// sim's event struct pins (one more word pushes heap copies off the
// register-move path and triples per-event cost).
//
//p3:sizebudget 32
type eventGrown struct { // want `struct eventGrown is 40 bytes, declared //p3:sizebudget 32`
	at    int64
	sched int64
	ord   uint64
	fn    func()
	tag   uint32
}

// itemGrown is sched.Item's layout plus the Src field Item deliberately
// does not have — it grows sched.Queue's per-element entry from 56 to 64
// bytes (measured up to +10.5% allocation per pass).
//
//p3:sizebudget 24
type itemGrown struct { // want `struct itemGrown is 32 bytes, declared //p3:sizebudget 24`
	Priority int32
	Dest     int32
	Bytes    int64
	rank     uint64
	Src      int32
}

//p3:sizebudget 0
type badArg struct{} // want `//p3:sizebudget "0": want a positive byte count`

//p3:sizebudget many
type badArg2 struct{} // want `//p3:sizebudget "many": want a positive byte count`

//p3:sizebudget 8
type notAStruct int64 // want `//p3:sizebudget on non-struct type notAStruct`

// unbudgeted carries no directive and is never checked.
type unbudgeted struct {
	a, b, c, d, e, f int64
}

var _ = [...]any{eventOK{}, eventGrown{}, itemGrown{}, badArg{}, badArg2{}, notAStruct(0), unbudgeted{}}
