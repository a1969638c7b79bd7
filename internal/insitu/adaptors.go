package insitu

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"strconv"
	"strings"

	"scidb/internal/array"
)

// --- CSV adaptor ----------------------------------------------------------

// CSVAdaptor reads a headered CSV file in situ: the header declares
// dimensions and attributes, each data line carries the dimension
// coordinates followed by the attribute values. Scanning streams the file;
// nothing is loaded ahead of time.
//
//	# scidb-csv
//	# dims: x, y
//	# attrs: v:float, tag:string
//	1,1,0.5,hello
type CSVAdaptor struct{}

// Name implements Adaptor.
func (CSVAdaptor) Name() string { return "csv" }

// Open implements Adaptor. Only the header is read; data stays on disk.
func (CSVAdaptor) Open(path string) (Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	schema, err := parseCSVHeader(sc, path)
	if err != nil {
		return nil, err
	}
	return &csvDataset{path: path, schema: schema}, nil
}

func parseCSVHeader(sc *bufio.Scanner, path string) (*array.Schema, error) {
	if !sc.Scan() || strings.TrimSpace(sc.Text()) != "# scidb-csv" {
		return nil, fmt.Errorf("insitu: %s: missing '# scidb-csv' marker", path)
	}
	schema := &array.Schema{Name: csvBase(path)}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "# dims:"):
			for _, d := range strings.Split(strings.TrimPrefix(line, "# dims:"), ",") {
				d = strings.TrimSpace(d)
				if d == "" {
					continue
				}
				// "name:High" declares the dimension bound; a bare name
				// stays unbounded (the original dialect).
				high := int64(array.Unbounded)
				if parts := strings.SplitN(d, ":", 2); len(parts) == 2 {
					v, err := strconv.ParseInt(strings.TrimSpace(parts[1]), 10, 64)
					if err != nil {
						return nil, fmt.Errorf("insitu: %s: bad dimension bound %q", path, d)
					}
					d, high = strings.TrimSpace(parts[0]), v
				}
				schema.Dims = append(schema.Dims, array.Dimension{Name: d, High: high})
			}
		case strings.HasPrefix(line, "# attrs:"):
			for _, a := range strings.Split(strings.TrimPrefix(line, "# attrs:"), ",") {
				a = strings.TrimSpace(a)
				if a == "" {
					continue
				}
				parts := strings.SplitN(a, ":", 2)
				t := array.TFloat64
				if len(parts) == 2 {
					var err error
					t, err = array.ParseType(strings.TrimSpace(parts[1]))
					if err != nil {
						return nil, fmt.Errorf("insitu: %s: %w", path, err)
					}
				}
				schema.Attrs = append(schema.Attrs, array.Attribute{Name: strings.TrimSpace(parts[0]), Type: t})
			}
		default:
			// First data line (or blank); header over.
			if err := schema.Validate(); err != nil {
				return nil, fmt.Errorf("insitu: %s: %w", path, err)
			}
			return schema, nil
		}
	}
	if err := schema.Validate(); err != nil {
		return nil, fmt.Errorf("insitu: %s: %w", path, err)
	}
	return schema, nil
}

func csvBase(path string) string {
	base := path
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	if i := strings.IndexByte(base, '.'); i > 0 {
		base = base[:i]
	}
	if base == "" {
		base = "csv"
	}
	return base
}

type csvDataset struct {
	path   string
	schema *array.Schema
}

func (d *csvDataset) Schema() *array.Schema { return d.schema }

func (d *csvDataset) Close() error { return nil }

// fill streams the file, parsing and filtering line by line — the in-situ
// path: no load step, data under user control. It is the one byte range
// that covers the whole file, read by the shards' line reader, so a line of
// any length that a shard reads, a whole-file read reads too.
func (d *csvDataset) fill(box array.Box, slot slotFunc) error {
	fi, err := os.Stat(d.path)
	if err != nil {
		return err
	}
	return (&csvShard{path: d.path, schema: d.schema, end: fi.Size()}).fill(box, slot)
}

// parseCSVLine parses one CSV line: its coordinates into c, reused from
// line to line, then its values into the slot that slot(c) names, written
// with the typed Column setters. ok is false for blank lines and # comments
// (including the header). It walks the bytes once: a coordinate, int or
// float field is parsed where it stands, and the stop of that parse at ','
// (or at the line's end, for the last field) is the field split. Any other
// field — a string, a bool, NULL, "v±s", white space, or a number the fast
// paths leave to strconv — is cut at its ',' and trimmed first. A line with
// the wrong number of fields fails as such ahead of any field's own error.
// It allocates only a copy of each non-NULL string value — line is the
// scan's read buffer and is overwritten by the next read — or when it
// fails. A parse error carries no file/line context, callers add it; an
// error from slot is returned as it is.
func parseCSVLine(schema *array.Schema, line []byte, c array.Coord, slot slotFunc) (bool, error) {
	line = trimField(line)
	if len(line) == 0 || line[0] == '#' {
		return false, nil
	}
	nd, n := len(schema.Dims), len(schema.Dims)+len(schema.Attrs)
	// rest is the line after the fields parsed so far; more is false once
	// the last field has been cut.
	rest, more := line, true
	for i := 0; i < nd; i++ {
		if !more {
			return false, lineError(line, n, nil)
		}
		if v, k := prefixInt(rest); k > 0 {
			if tail, m, ok := fieldEnd(rest, k); ok {
				c[i], rest, more = v, tail, m
				continue
			}
		}
		field, tail, m := cutField(rest)
		v, err := parseInt(trimField(field))
		if err != nil {
			return false, lineError(line, n, fmt.Errorf("bad coordinate %q", field))
		}
		c[i], rest, more = v, tail, m
	}
	ch, slotIdx, err := slot(c)
	if err != nil {
		return false, err
	}
	for _, col := range ch.Cols {
		if !more {
			return false, lineError(line, n, nil)
		}
		switch col.Type {
		case array.TInt64:
			if v, k := prefixInt(rest); k > 0 {
				if tail, m, ok := fieldEnd(rest, k); ok {
					col.SetInt(slotIdx, v)
					rest, more = tail, m
					continue
				}
			}
		case array.TFloat64:
			if v, k := prefixFloat(rest); k > 0 {
				if tail, m, ok := fieldEnd(rest, k); ok {
					col.SetFloat(slotIdx, v, 0)
					rest, more = tail, m
					continue
				}
			}
		}
		field, tail, m := cutField(rest)
		if err := setCSVValue(col, slotIdx, trimField(field)); err != nil {
			return false, lineError(line, n, err)
		}
		rest, more = tail, m
	}
	if more {
		return false, lineError(line, n, nil)
	}
	return true, nil
}

// fieldEnd reports whether a number parsed where it stands at the start of
// rest, and stopping k bytes in, is its whole field: rest[k] is ',' or k
// ends the line. It returns what follows the field and whether a ','
// separated it from that.
func fieldEnd(rest []byte, k int) (tail []byte, more, ok bool) {
	switch {
	case k == len(rest):
		return nil, false, true
	case rest[k] == ',':
		return rest[k+1:], true, true
	}
	return nil, false, false
}

// cutField cuts rest at its first ',': the field, what follows it, and
// whether there was a ','.
func cutField(rest []byte) (field, tail []byte, more bool) {
	if j := bytes.IndexByte(rest, ','); j >= 0 {
		return rest[:j], rest[j+1:], true
	}
	return rest, nil, false
}

// lineError is err, or the field-count error when line does not hold n
// fields: a line fails on its count ahead of any field's own error.
func lineError(line []byte, n int, err error) error {
	if got := bytes.Count(line, []byte{','}) + 1; got != n {
		return fmt.Errorf("%d fields, want %d", got, n)
	}
	return err
}

// trimField is strings.TrimSpace over bytes, checking only the edge bytes
// on the common path: a field is trimmed only when one of them is ASCII
// white space, a control byte or the start of a multi-byte rune.
func trimField(b []byte) []byte {
	if len(b) > 0 && (b[0] <= ' ' || b[0] >= 0x80 || b[len(b)-1] <= ' ' || b[len(b)-1] >= 0x80) {
		return bytes.TrimSpace(b)
	}
	return b
}

// parseInt is strconv.ParseInt(string(b), 10, 64), through prefixInt when
// that takes all of b.
func parseInt(b []byte) (int64, error) {
	if v, n := prefixInt(b); n > 0 && n == len(b) {
		return v, nil
	}
	return strconv.ParseInt(string(b), 10, 64)
}

// prefixInt parses the -?digits at the start of b with a decimal loop and
// returns the value and the bytes it took. n is 0 when b does not start
// with a digit or '-' and a digit, or has more than 18 digits there — so
// that the loop cannot overflow; strconv takes those.
func prefixInt(b []byte) (v int64, n int) {
	i := 0
	if len(b) > 0 && b[0] == '-' {
		i++
	}
	start := i
	for i < len(b) && b[i]-'0' <= 9 {
		v = v*10 + int64(b[i]-'0')
		i++
	}
	if i == start || i-start > 18 {
		return 0, 0
	}
	if start > 0 {
		v = -v
	}
	return v, i
}

// plusMinus is "±", which separates a float from its error bar.
var plusMinus = []byte("±")

// setCSVValue parses one trimmed attribute field into slot i of col, for
// the fields the line parser's fast paths do not take. An empty field or
// NULL is NULL; "v±s" is a float with an error bar; a string value is a
// copy of raw.
func setCSVValue(col *array.Column, i int64, raw []byte) error {
	if len(raw) == 0 || string(raw) == "NULL" {
		col.SetNull(i)
		return nil
	}
	switch col.Type {
	case array.TInt64:
		v, err := parseInt(raw)
		if err != nil {
			return fmt.Errorf("bad int %q", raw)
		}
		col.SetInt(i, v)
	case array.TFloat64:
		// "v±s" carries an error bar. '±' is 0xC2 0xB1 in UTF-8, so a
		// field without 0xC2 has none.
		if bytes.IndexByte(raw, 0xC2) >= 0 {
			if j := bytes.Index(raw, plusMinus); j >= 0 {
				m, err1 := parseFloat(raw[:j])
				s, err2 := parseFloat(raw[j+len(plusMinus):])
				if err1 != nil || err2 != nil {
					return fmt.Errorf("bad uncertain float %q", raw)
				}
				col.SetFloat(i, m, s)
				return nil
			}
		}
		v, err := parseFloat(raw)
		if err != nil {
			return fmt.Errorf("bad float %q", raw)
		}
		col.SetFloat(i, v, 0)
	case array.TBool:
		v, err := strconv.ParseBool(string(raw))
		if err != nil {
			return fmt.Errorf("bad bool %q", raw)
		}
		col.SetBool(i, v)
	case array.TString:
		col.SetString(i, string(raw))
	default:
		return fmt.Errorf("unsupported CSV type")
	}
	return nil
}

// WriteCSV writes an array in the adaptor's CSV dialect, one line at a
// time into a reused buffer. It fails, naming the cell and the attribute,
// on a value the dialect cannot carry — a string that is empty or NULL, has
// white space at an edge or holds ',' or '\n'; an error bar on a value that
// is not a float; a nested array — so every value it writes reads back
// identical (an error bar of zero, of either sign, is no error bar).
func WriteCSV(path string, a *array.Array) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "# scidb-csv")
	var dims, attrs []string
	for _, d := range a.Schema.Dims {
		if d.High != array.Unbounded {
			dims = append(dims, fmt.Sprintf("%s:%d", d.Name, d.High))
		} else {
			dims = append(dims, d.Name)
		}
	}
	for _, at := range a.Schema.Attrs {
		attrs = append(attrs, at.Name+":"+at.Type.String())
	}
	fmt.Fprintf(w, "# dims: %s\n", strings.Join(dims, ", "))
	fmt.Fprintf(w, "# attrs: %s\n", strings.Join(attrs, ", "))
	var line []byte
	var werr error
	a.Iter(func(c array.Coord, cell array.Cell) bool {
		line = line[:0]
		for i, v := range c {
			if i > 0 {
				line = append(line, ',')
			}
			line = strconv.AppendInt(line, v, 10)
		}
		for i, v := range cell {
			if len(c)+i > 0 {
				line = append(line, ',')
			}
			var err error
			if line, err = appendCSVValue(line, v); err != nil {
				werr = fmt.Errorf("insitu: %s: cell %v, attribute %s: %w", path, c, a.Schema.Attrs[i].Name, err)
				return false
			}
		}
		line = append(line, '\n')
		if _, err := w.Write(line); err != nil {
			werr = err
			return false
		}
		return true
	})
	if werr != nil {
		return werr
	}
	return w.Flush()
}

// appendCSVValue appends v as setCSVValue reads it back, or fails if the
// dialect cannot carry it.
func appendCSVValue(b []byte, v array.Value) ([]byte, error) {
	if v.Null {
		return append(b, "NULL"...), nil
	}
	if v.Sigma != 0 && v.Type != array.TFloat64 {
		return b, fmt.Errorf("%s value with an error bar (±%g) has no CSV form", v.Type, v.Sigma)
	}
	switch v.Type {
	case array.TInt64:
		return strconv.AppendInt(b, v.Int, 10), nil
	case array.TFloat64:
		b = strconv.AppendFloat(b, v.Float, 'g', -1, 64)
		if v.Sigma != 0 {
			b = append(b, plusMinus...)
			b = strconv.AppendFloat(b, v.Sigma, 'g', -1, 64)
		}
		return b, nil
	case array.TBool:
		return strconv.AppendBool(b, v.Bool), nil
	case array.TString:
		switch {
		case v.Str == "" || v.Str == "NULL":
			return b, fmt.Errorf("string %q would read back as NULL", v.Str)
		case strings.TrimSpace(v.Str) != v.Str:
			return b, fmt.Errorf("string %q would read back trimmed", v.Str)
		case strings.ContainsAny(v.Str, ",\n"):
			return b, fmt.Errorf("string %q holds a field or line separator", v.Str)
		}
		return append(b, v.Str...), nil
	}
	return b, fmt.Errorf("%s value has no CSV form", v.Type)
}

// --- NCL: a NetCDF-like dense container -----------------------------------

// NCL is this repo's stand-in for NetCDF/HDF-5 (see DESIGN.md): a dense,
// dimensioned, multi-variable binary container with named dimensions and
// typed variables, supporting random access without a load step.
//
// Layout (little endian):
//
//	"NCL1" | ndims u32 | {nameLen u32, name, size u64}* |
//	nvars u32 | {nameLen u32, name, type u8}* |
//	per variable, row-major dense payload of 8-byte values
type nclHeader struct {
	dims     []array.Dimension
	vars     []array.Attribute
	dataOff  []int64 // per-variable payload offset
	cellsPer int64
}

// NCLAdaptor opens NCL files in situ with random access.
type NCLAdaptor struct{}

// Name implements Adaptor.
func (NCLAdaptor) Name() string { return "ncl" }

// Open implements Adaptor. Only the header is parsed.
func (NCLAdaptor) Open(path string) (Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	hdr, err := readNCLHeader(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	schema := &array.Schema{Name: csvBase(path), Dims: hdr.dims, Attrs: hdr.vars}
	if err := schema.Validate(); err != nil {
		f.Close()
		return nil, err
	}
	return &nclDataset{f: f, hdr: hdr, schema: schema}, nil
}

// WriteNCL writes a dense array (every in-bounds cell present; absent cells
// are written as zero) in NCL format. Only int64/float64 attributes are
// supported, matching NetCDF's numeric focus.
func WriteNCL(path string, a *array.Array) error {
	for _, at := range a.Schema.Attrs {
		if at.Type != array.TInt64 && at.Type != array.TFloat64 {
			return fmt.Errorf("insitu: NCL supports numeric variables only, %s is %s", at.Name, at.Type)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	if _, err := w.WriteString("NCL1"); err != nil {
		return err
	}
	var b8 [8]byte
	u32 := func(v uint32) {
		binary.LittleEndian.PutUint32(b8[:4], v)
		w.Write(b8[:4])
	}
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(b8[:], v)
		w.Write(b8[:])
	}
	u32(uint32(len(a.Schema.Dims)))
	for i, d := range a.Schema.Dims {
		u32(uint32(len(d.Name)))
		w.WriteString(d.Name)
		u64(uint64(a.Hwm(i)))
	}
	u32(uint32(len(a.Schema.Attrs)))
	for _, at := range a.Schema.Attrs {
		u32(uint32(len(at.Name)))
		w.WriteString(at.Name)
		w.WriteByte(byte(at.Type))
	}
	// Dense payloads.
	bounds := a.Bounds()
	box := array.Box{Lo: make(array.Coord, len(bounds)), Hi: bounds}
	for i := range box.Lo {
		box.Lo[i] = 1
	}
	for ai, at := range a.Schema.Attrs {
		var werr error
		array.IterBox(box, func(c array.Coord) bool {
			var bits uint64
			if cell, ok := a.At(c); ok && !cell[ai].Null {
				if at.Type == array.TInt64 {
					bits = uint64(cell[ai].Int)
				} else {
					bits = floatBits(cell[ai].Float)
				}
			}
			binary.LittleEndian.PutUint64(b8[:], bits)
			if _, err := w.Write(b8[:]); err != nil {
				werr = err
				return false
			}
			return true
		})
		if werr != nil {
			return werr
		}
	}
	return w.Flush()
}

func readNCLHeader(f *os.File) (*nclHeader, error) {
	r := bufio.NewReader(f)
	magic := make([]byte, 4)
	if _, err := readFull(r, magic); err != nil {
		return nil, err
	}
	if string(magic) != "NCL1" {
		return nil, fmt.Errorf("insitu: not an NCL file")
	}
	off := int64(4)
	rdU32 := func() (uint32, error) {
		b := make([]byte, 4)
		if _, err := readFull(r, b); err != nil {
			return 0, err
		}
		off += 4
		return binary.LittleEndian.Uint32(b), nil
	}
	rdU64 := func() (uint64, error) {
		b := make([]byte, 8)
		if _, err := readFull(r, b); err != nil {
			return 0, err
		}
		off += 8
		return binary.LittleEndian.Uint64(b), nil
	}
	rdStr := func(n uint32) (string, error) {
		b := make([]byte, n)
		if _, err := readFull(r, b); err != nil {
			return "", err
		}
		off += int64(n)
		return string(b), nil
	}
	nd, err := rdU32()
	if err != nil {
		return nil, err
	}
	hdr := &nclHeader{cellsPer: 1}
	for i := uint32(0); i < nd; i++ {
		nl, err := rdU32()
		if err != nil {
			return nil, err
		}
		name, err := rdStr(nl)
		if err != nil {
			return nil, err
		}
		size, err := rdU64()
		if err != nil {
			return nil, err
		}
		hdr.dims = append(hdr.dims, array.Dimension{Name: name, High: int64(size)})
		hdr.cellsPer *= int64(size)
	}
	nv, err := rdU32()
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < nv; i++ {
		nl, err := rdU32()
		if err != nil {
			return nil, err
		}
		name, err := rdStr(nl)
		if err != nil {
			return nil, err
		}
		tb := make([]byte, 1)
		if _, err := readFull(r, tb); err != nil {
			return nil, err
		}
		off++
		t := array.Type(tb[0])
		if t != array.TInt64 && t != array.TFloat64 {
			return nil, fmt.Errorf("insitu: NCL variable %s is %s, not numeric", name, t)
		}
		hdr.vars = append(hdr.vars, array.Attribute{Name: name, Type: t})
	}
	for i := range hdr.vars {
		hdr.dataOff = append(hdr.dataOff, off+int64(i)*hdr.cellsPer*8)
	}
	return hdr, nil
}

type nclDataset struct {
	f      *os.File
	hdr    *nclHeader
	schema *array.Schema
}

func (d *nclDataset) Schema() *array.Schema { return d.schema }

func (d *nclDataset) Close() error { return d.f.Close() }

// fill reads only the requested box from disk via random access — the
// genuine in-situ advantage over load-everything-then-query — writing each
// cell's values from their bits.
func (d *nclDataset) fill(box array.Box, slot slotFunc) error {
	whole := array.WholeBox(d.schema)
	q, ok := whole.Intersect(box)
	if !ok {
		return nil
	}
	origin := make(array.Coord, len(d.hdr.dims))
	shape := make([]int64, len(d.hdr.dims))
	for i, dim := range d.hdr.dims {
		origin[i] = 1
		shape[i] = dim.High
	}
	buf := make([]byte, 8)
	var scanErr error
	array.IterBox(q, func(c array.Coord) bool {
		idx := array.RowMajorIndex(origin, shape, c)
		ch, i, err := slot(c)
		if err != nil {
			scanErr = err
			return false
		}
		for vi, col := range ch.Cols {
			if _, err := d.f.ReadAt(buf, d.hdr.dataOff[vi]+idx*8); err != nil {
				scanErr = err
				return false
			}
			bits := binary.LittleEndian.Uint64(buf)
			if col.Type == array.TInt64 {
				col.SetInt(i, int64(bits))
			} else {
				col.SetFloat(i, floatFromBits(bits), 0)
			}
		}
		return true
	})
	return scanErr
}

func readFull(r *bufio.Reader, b []byte) (int, error) {
	n := 0
	for n < len(b) {
		m, err := r.Read(b[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}
