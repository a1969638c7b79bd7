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

// Scan streams the file, parsing and filtering line by line — the in-situ
// path: no load step, data under user control. It is the one byte range
// that covers the whole file, read by the shards' line reader, so a line of
// any length that a shard reads, Scan reads too.
func (d *csvDataset) Scan(box array.Box, fn func(array.Coord, array.Cell) bool) error {
	fi, err := os.Stat(d.path)
	if err != nil {
		return err
	}
	return (&csvShard{path: d.path, schema: d.schema, end: fi.Size()}).Scan(box, fn)
}

// newRecord makes the Coord and Cell a scan of schema parses every line into.
func newRecord(schema *array.Schema) (array.Coord, array.Cell) {
	return make(array.Coord, len(schema.Dims)), make(array.Cell, len(schema.Attrs))
}

// parseCSVLine parses one CSV line into c and cell (newRecord's, reused from
// line to line). ok is false for blank lines and # comments (including the
// header). It walks the bytes once, a field at a time, and allocates only a
// copy of each non-NULL string value — line is the scan's read buffer and is
// overwritten by the next read — or when it fails. The returned error
// carries no file/line context; callers add it.
func parseCSVLine(schema *array.Schema, line []byte, c array.Coord, cell array.Cell) (bool, error) {
	line = trimField(line)
	if len(line) == 0 || line[0] == '#' {
		return false, nil
	}
	nd, n := len(schema.Dims), len(schema.Dims)+len(schema.Attrs)
	if got := bytes.Count(line, []byte{','}) + 1; got != n {
		return false, fmt.Errorf("%d fields, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		field := line
		if j := bytes.IndexByte(line, ','); j >= 0 {
			field, line = line[:j], line[j+1:]
		}
		if i < nd {
			v, err := parseInt(trimField(field))
			if err != nil {
				return false, fmt.Errorf("bad coordinate %q", field)
			}
			c[i] = v
			continue
		}
		v, err := parseCSVValue(trimField(field), schema.Attrs[i-nd].Type)
		if err != nil {
			return false, err
		}
		cell[i-nd] = v
	}
	return true, nil
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

// parseInt is strconv.ParseInt(string(b), 10, 64) with a decimal loop for
// the common -?digits form of at most 18 digits, which cannot overflow.
func parseInt(b []byte) (int64, error) {
	d := b
	if len(d) > 0 && d[0] == '-' {
		d = d[1:]
	}
	if len(d) == 0 || len(d) > 18 {
		return strconv.ParseInt(string(b), 10, 64)
	}
	var v int64
	for _, ch := range d {
		if ch-'0' > 9 {
			return strconv.ParseInt(string(b), 10, 64)
		}
		v = v*10 + int64(ch-'0')
	}
	if len(d) < len(b) {
		v = -v
	}
	return v, nil
}

// plusMinus is "±", which separates a float from its error bar.
var plusMinus = []byte("±")

// parseCSVValue parses one trimmed attribute field of type t. An empty
// field or NULL is NULL; a string value is a copy of raw.
func parseCSVValue(raw []byte, t array.Type) (array.Value, error) {
	if len(raw) == 0 || string(raw) == "NULL" {
		return array.NullValue(t), nil
	}
	switch t {
	case array.TInt64:
		v, err := parseInt(raw)
		if err != nil {
			return array.Value{}, fmt.Errorf("bad int %q", raw)
		}
		return array.Int64(v), nil
	case array.TFloat64:
		// "v±s" carries an error bar. '±' is 0xC2 0xB1 in UTF-8, so a
		// field without 0xC2 has none.
		if bytes.IndexByte(raw, 0xC2) >= 0 {
			if i := bytes.Index(raw, plusMinus); i >= 0 {
				m, err1 := parseFloat(raw[:i])
				s, err2 := parseFloat(raw[i+len(plusMinus):])
				if err1 != nil || err2 != nil {
					return array.Value{}, fmt.Errorf("bad uncertain float %q", raw)
				}
				return array.UncertainFloat(m, s), nil
			}
		}
		v, err := parseFloat(raw)
		if err != nil {
			return array.Value{}, fmt.Errorf("bad float %q", raw)
		}
		return array.Float64(v), nil
	case array.TBool:
		v, err := strconv.ParseBool(string(raw))
		if err != nil {
			return array.Value{}, fmt.Errorf("bad bool %q", raw)
		}
		return array.Bool64(v), nil
	case array.TString:
		return array.String64(string(raw)), nil
	}
	return array.Value{}, fmt.Errorf("unsupported CSV type")
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

// appendCSVValue appends v as parseCSVValue reads it back, or fails if the
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
		hdr.vars = append(hdr.vars, array.Attribute{Name: name, Type: array.Type(tb[0])})
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

// Scan reads only the requested box from disk via random access — the
// genuine in-situ advantage over load-everything-then-query.
func (d *nclDataset) Scan(box array.Box, fn func(array.Coord, array.Cell) bool) error {
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
	cell := make(array.Cell, len(d.hdr.vars))
	var scanErr error
	array.IterBox(q, func(c array.Coord) bool {
		idx := array.RowMajorIndex(origin, shape, c)
		for vi, at := range d.hdr.vars {
			if _, err := d.f.ReadAt(buf, d.hdr.dataOff[vi]+idx*8); err != nil {
				scanErr = err
				return false
			}
			bits := binary.LittleEndian.Uint64(buf)
			if at.Type == array.TInt64 {
				cell[vi] = array.Int64(int64(bits))
			} else {
				cell[vi] = array.Float64(floatFromBits(bits))
			}
		}
		return fn(c, cell)
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
