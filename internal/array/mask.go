package array

// Chunk-at-a-time read primitives. A chunk scan hands its consumer a chunk
// plus a "live" mask — the slots to read: present, inside the query box,
// not shadowed by newer data. These helpers build and trim such masks a
// row (innermost-dimension run) at a time, so no consumer has to box a cell
// or a coordinate to honour one; Chunk.Select takes the slots one marks.

// Rows calls fn for every innermost-dimension run of box, which must lie
// inside the chunk: start is the run's first slot, n its length, and c its
// first coordinate. c is reused between calls.
func (ch *Chunk) Rows(box Box, fn func(start, n int64, c Coord)) {
	last := len(ch.Shape) - 1
	n := box.Hi[last] - box.Lo[last] + 1
	c := box.Lo.Clone()
	for {
		fn(ch.Index(c), n, c)
		d := last - 1
		for ; d >= 0; d-- {
			c[d]++
			if c[d] <= box.Hi[d] {
				break
			}
			c[d] = box.Lo[d]
		}
		if d < 0 {
			return
		}
	}
}

// BoxMask returns a fresh mask of the chunk's present slots inside box.
func (ch *Chunk) BoxMask(box Box) *Bitmap {
	m := NewBitmap(ch.Slots())
	if inter, ok := ch.Box().Intersect(box); ok {
		ch.Rows(inter, func(start, n int64, _ Coord) {
			m.OrRange(ch.Present, start, start+n)
		})
	}
	return m
}

// MaskIn returns the mask of the chunk's present slots inside box without
// allocating when it can: Present itself (shared — clone before clearing
// bits) when box covers the whole chunk, a fresh BoxMask otherwise.
func (ch *Chunk) MaskIn(box Box) *Bitmap {
	for d := range ch.Origin {
		if box.Lo[d] > ch.Origin[d] || box.Hi[d] < ch.Origin[d]+ch.Shape[d]-1 {
			return ch.BoxMask(box)
		}
	}
	return ch.Present
}

// ClearBox clears the mask's slots inside box.
func (ch *Chunk) ClearBox(mask *Bitmap, box Box) {
	if inter, ok := ch.Box().Intersect(box); ok {
		ch.Rows(inter, func(start, n int64, _ Coord) {
			mask.ClearRange(start, start+n)
		})
	}
}
