//go:build race

package core

import "pardis/internal/future"

// poisonValue fills the result slots of a recycled record.
const poisonValue = "core: read from a recycled call record"

// poisonRecord marks a record on its way back to the free list, so that under
// the race detector a path that still used it after recycling — a stale
// pointer resolving, a blocking caller reading its own slots, a late reply
// matching it — reads poison and fails its test instead of quietly reading
// the zero record or the next call's state.
func poisonRecord(p *pendingReq) {
	p.id, p.seqNo, p.opIdx = 0xDBDBDBDB, 0xDBDBDBDB, 0xDBDBDBDB
	slots := p.own.Slots(future.InlineSlots)
	for i := range slots {
		slots[i] = poisonValue
	}
}
