package array

// Chunk-at-a-time read primitives. A chunk scan hands its consumer a chunk
// plus a "live" mask — the slots to read: present, inside the query box,
// not shadowed by newer data. These helpers build and trim such masks a
// row (innermost-dimension run) at a time and copy masked slots column-wise,
// so no consumer has to box a cell or a coordinate to honour one.

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

// ClearShadowed clears the mask's slots, within box, whose coordinate is
// present in a newer chunk laid out at (origin, shape) with the given
// presence bitmap: newest-write-wins resolved on bitmaps, with no per-cell
// key.
func (ch *Chunk) ClearShadowed(mask *Bitmap, box Box, origin Coord, shape []int64, present *Bitmap) {
	newer := Chunk{Origin: origin, Shape: shape}
	inter, ok := ch.Box().Intersect(box)
	if ok {
		inter, ok = inter.Intersect(newer.Box())
	}
	if !ok {
		return
	}
	ch.Rows(inter, func(start, n int64, c Coord) {
		from := newer.Index(c)
		for k := present.NextSet(from); k < from+n; k = present.NextSet(k + 1) {
			mask.Clear(start + k - from)
		}
	})
}

// CopyMasked copies slots [src, src+n) of o — a column of the same type —
// into slots [dst, dst+n) of c wherever live has the source slot set,
// preserving nulls and error bars: CopyFrom for a masked run, with the type
// dispatched once per run instead of once per cell. c must be open (a
// sealed c opens); o may be either.
func (c *Column) CopyMasked(o *Column, dst, src, n int64, live *Bitmap) {
	c.Zone = nil
	if c.rank != nil {
		c.open()
	}
	shift := dst - src
	for i := live.NextSet(src); i < src+n; i = live.NextSet(i + 1) {
		if o.Nulls.Get(i) {
			c.Nulls.Set(i + shift)
		} else {
			c.Nulls.Clear(i + shift)
		}
	}
	switch c.Type {
	case TInt64:
		copyMasked(c.Ints, o.Ints, o.rank, src, n, shift, live)
	case TFloat64:
		copyMasked(c.Floats, o.Floats, o.rank, src, n, shift, live)
	case TString:
		copyMasked(c.Strs, o.Strs, o.rank, src, n, shift, live)
	case TBool:
		copyMasked(c.Bools, o.Bools, o.rank, src, n, shift, live)
	case TArray:
		copyMasked(c.Arrs, o.Arrs, o.rank, src, n, shift, live)
	}
	if c.Sigma == nil {
		return
	}
	for i := live.NextSet(src); i < src+n; i = live.NextSet(i + 1) {
		c.Sigma[i+shift] = o.sigmaAt(o.rank.Of(i))
	}
}

// copyMasked is CopyMasked's value copy over one vector type: the value of
// each live slot i of [src, src+n), at r.Of(i) in from, goes to slot i+shift
// of to.
func copyMasked[T any](to, from []T, r *Rank, src, n, shift int64, live *Bitmap) {
	for i := live.NextSet(src); i < src+n; i = live.NextSet(i + 1) {
		to[i+shift] = from[r.Of(i)]
	}
}

// MergeMasked copies the live slots of ch into the array's own grid chunks,
// column by column. Unlike MergeChunk it never adopts ch, so ch may be a
// shared read-only chunk (a buffer-pool entry) on any chunk grid, and live
// may select any subset of its present cells.
func (a *Array) MergeMasked(ch *Chunk, live *Bitmap) error {
	last := len(ch.Shape) - 1
	var err error
	ch.Rows(ch.Box(), func(start, n int64, c Coord) {
		first := live.NextSet(start)
		if err != nil || first >= start+n {
			return
		}
		end := start + n
		lo := c[last]
		// Walk the row one destination grid chunk at a time.
		for i := first; i < end; i = live.NextSet(i) {
			c[last] = lo + i - start
			if err = a.checkCoord(c); err != nil {
				break
			}
			dst := a.writable(c)
			seg := dst.Origin[last] + dst.Shape[last] - c[last]
			if seg > end-i {
				seg = end - i
			}
			at := dst.Index(c)
			var top int64 = -1
			for k := live.NextSet(i); k < i+seg; k = live.NextSet(k + 1) {
				if a.Shape != nil {
					c[last] = lo + k - start
					if err = a.checkCoord(c); err != nil {
						break
					}
				}
				dst.Present.Set(at + k - i)
				top = k
			}
			if err != nil {
				break
			}
			for ai, col := range dst.Cols {
				col.CopyMasked(ch.Cols[ai], at, i, seg, live)
			}
			c[last] = lo + top - start
			if err = a.checkCoord(c); err != nil {
				break
			}
			for d := range c {
				if c[d] > a.hwm[d] {
					a.hwm[d] = c[d]
				}
			}
			i += seg
		}
		c[last] = lo
	})
	return err
}
