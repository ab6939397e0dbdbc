package recovery

import (
	"encoding/binary"
	"fmt"
	"sort"

	"weihl83/internal/histories"
	"weihl83/internal/spec"
	"weihl83/internal/value"
)

// recordFormat is the leading byte of every record payload: the binary
// layout below, version 1. A record written in the earlier JSON encoding
// begins with '{' (0x7b), which is no format byte, so a log from before
// the binary format fails to open with ErrCorrupt instead of being
// misparsed.
//
// After the format byte a payload is a fixed sequence of fields:
//
//	payload  = format kind:uvarint txn:str object:str ts:varint
//	           migrate:uvarint ringv:uvarint calls:list(call)
//	           participants:list(str) states:map(bytes)
//	           decided:map() hosted:map(bool) replicats:map(varint)
//	call     = op:str arg:value result:value
//	value    = kind:uvarint, then nothing (nil, unit), varint (int),
//	           bool (bool), str (string), varint varint (pair)
//	bool     = one byte, 0 or 1
//	str      = len:uvarint, then len bytes (bytes likewise)
//	list(x)  = uvarint 0 for nil, or n+1 followed by n x's
//	map(x)   = list of (key:str x), keys strictly ascending
//
// Sorted keys make the encoding deterministic: one record always encodes
// to the same bytes. A checkpoint's states are each object's
// spec.StateCodec bytes, which is why decoding needs the spec table the
// file backend is opened with. Every length and count is checked against
// the bytes that remain before anything is allocated for it.
const recordFormat byte = 1

// encodeRecord serializes r for the file backend. specs supplies the
// StateCodec for each object appearing in a checkpoint's States snapshot;
// a spec without a codec makes the record unencodable (the caller's
// checkpoint fails cleanly, leaving the uncompacted log authoritative).
// Torn records are never encoded: on a real file a torn write is a
// truncated frame, not a flagged record.
func encodeRecord(r Record, specs map[histories.ObjectID]spec.SerialSpec) ([]byte, error) {
	var states map[histories.ObjectID][]byte
	if r.States != nil {
		states = make(map[histories.ObjectID][]byte, len(r.States))
		for id, st := range r.States {
			codec, err := codecFor(specs, id)
			if err != nil {
				return nil, fmt.Errorf("recovery: encode: %w", err)
			}
			if states[id], err = codec.EncodeState(st); err != nil {
				return nil, fmt.Errorf("recovery: encode state of %s: %w", id, err)
			}
		}
	}
	b := make([]byte, 0, 32+len(r.Txn)+len(r.Object)+24*len(r.Calls))
	b = append(b, recordFormat)
	b = binary.AppendUvarint(b, uint64(r.Kind))
	b = appendString(b, string(r.Txn))
	b = appendString(b, string(r.Object))
	b = binary.AppendVarint(b, int64(r.TS))
	b = binary.AppendUvarint(b, uint64(r.Migrate))
	b = binary.AppendUvarint(b, r.RingV)
	b = appendLen(b, r.Calls == nil, len(r.Calls))
	for _, c := range r.Calls {
		b = appendString(b, c.Inv.Op)
		b = appendValue(b, c.Inv.Arg)
		b = appendValue(b, c.Result)
	}
	b = appendLen(b, r.Participants == nil, len(r.Participants))
	for _, p := range r.Participants {
		b = appendString(b, p)
	}
	b = appendMap(b, states, appendString[[]byte])
	b = appendMap(b, r.Decided, func(b []byte, _ bool) []byte { return b })
	b = appendMap(b, r.Hosted, appendBool)
	b = appendMap(b, r.ReplicaTS, func(b []byte, ts histories.Timestamp) []byte {
		return binary.AppendVarint(b, int64(ts))
	})
	return b, nil
}

// codecFor returns the StateCodec of object id's spec.
func codecFor(specs map[histories.ObjectID]spec.SerialSpec, id histories.ObjectID) (spec.StateCodec, error) {
	s, ok := specs[id]
	if !ok {
		return nil, fmt.Errorf("checkpoint references object %s with no spec", id)
	}
	codec, ok := s.(spec.StateCodec)
	if !ok {
		return nil, fmt.Errorf("spec %s for object %s has no StateCodec", s.Name(), id)
	}
	return codec, nil
}

// appendLen writes a list header: 0 for nil, n+1 for n elements.
func appendLen(b []byte, isNil bool, n int) []byte {
	if isNil {
		return append(b, 0)
	}
	return binary.AppendUvarint(b, uint64(n)+1)
}

// appendMap writes m as a list of key-value entries in ascending key
// order, each value written by val.
func appendMap[K ~string, V any](b []byte, m map[K]V, val func([]byte, V) []byte) []byte {
	b = appendLen(b, m == nil, len(m))
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		b = appendString(b, k)
		b = val(b, m[k])
	}
	return b
}

func appendString[S ~string | ~[]byte](b []byte, s S) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendValue(b []byte, v value.Value) []byte {
	b = binary.AppendUvarint(b, uint64(v.Kind()))
	switch v.Kind() {
	case value.KindInt:
		n, _ := v.AsInt()
		b = binary.AppendVarint(b, n)
	case value.KindBool:
		x, _ := v.AsBool()
		b = appendBool(b, x)
	case value.KindString:
		s, _ := v.AsString()
		b = appendString(b, s)
	case value.KindPair:
		i, j, _ := v.AsPair()
		b = binary.AppendVarint(b, i)
		b = binary.AppendVarint(b, j)
	}
	return b
}

// decodeRecord reverses encodeRecord. It returns ErrCorrupt-wrapped errors
// for payloads that pass their frame checksum but do not parse: a valid
// CRC over an undecodable record means the bytes are authentic and the log
// is damaged (or written by an incompatible version), which trimming must
// not paper over. A checkpoint naming an object with no spec, or with a
// spec that has no StateCodec, is a configuration error, not corruption.
func decodeRecord(payload []byte, specs map[histories.ObjectID]spec.SerialSpec) (Record, error) {
	if len(payload) == 0 || payload[0] != recordFormat {
		lead := "empty payload"
		if len(payload) > 0 {
			lead = fmt.Sprintf("leading byte 0x%02x", payload[0])
		}
		return Record{}, fmt.Errorf("%w: %s is not binary record format %d (logs written in the JSON record format cannot be read)", ErrCorrupt, lead, recordFormat)
	}
	d := &decoder{b: payload[1:]}
	r := Record{
		Kind:   RecordKind(d.enum(uint64(RecordIntentions), uint64(RecordCheckpoint), "record kind")),
		Txn:    histories.ActivityID(d.string()),
		Object: histories.ObjectID(d.string()),
		TS:     histories.Timestamp(d.varint()),
	}
	r.Migrate = MigrateDir(d.enum(uint64(MigrateNone), uint64(ReplicaIn), "migration direction"))
	r.RingV = d.uvarint()
	if n, ok := d.len(3); ok { // op length, arg kind, result kind
		r.Calls = make([]spec.Call, 0, n)
		for i := 0; i < n && d.err == nil; i++ {
			var c spec.Call
			c.Inv.Op = d.string()
			c.Inv.Arg = d.value()
			c.Result = d.value()
			r.Calls = append(r.Calls, c)
		}
	}
	if n, ok := d.len(1); ok {
		r.Participants = make([]string, 0, n)
		for i := 0; i < n && d.err == nil; i++ {
			r.Participants = append(r.Participants, d.string())
		}
	}
	states := decodeMap[histories.ObjectID](d, 2, d.bytes)
	r.Decided = decodeMap[histories.ActivityID](d, 1, func() bool { return true })
	r.Hosted = decodeMap[histories.ObjectID](d, 2, d.bool)
	r.ReplicaTS = decodeMap[histories.ObjectID](d, 2, func() histories.Timestamp { return histories.Timestamp(d.varint()) })
	if d.err == nil && len(d.b) > 0 {
		d.fail("%d trailing bytes", len(d.b))
	}
	if d.err != nil {
		return Record{}, d.err
	}

	if states != nil {
		r.States = make(map[histories.ObjectID]spec.State, len(states))
		for id, raw := range states {
			codec, err := codecFor(specs, id)
			if err != nil {
				return Record{}, fmt.Errorf("recovery: decode: %w", err)
			}
			st, err := codec.DecodeState(raw)
			if err != nil {
				return Record{}, fmt.Errorf("%w: state of %s: %v", ErrCorrupt, id, err)
			}
			r.States[id] = st
		}
	}
	return r, nil
}

// decoder reads the binary record layout. The first malformed field sets
// err (wrapping ErrCorrupt); every read after that returns a zero value,
// so decodeRecord checks err once per loop and once at the end.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: undecodable record: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// enum reads a uvarint that must lie in [lo, hi].
func (d *decoder) enum(lo, hi uint64, what string) uint64 {
	v := d.uvarint()
	if v < lo || v > hi {
		d.fail("unknown %s %d", what, v)
	}
	return v
}

// bytes reads a length-prefixed byte string, aliasing the payload.
func (d *decoder) bytes() []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)) {
		d.fail("length %d exceeds the %d bytes left", n, len(d.b))
		return nil
	}
	p := d.b[:n]
	d.b = d.b[n:]
	return p
}

func (d *decoder) string() string { return string(d.bytes()) }

func (d *decoder) bool() bool {
	if d.err != nil {
		return false
	}
	if len(d.b) == 0 || d.b[0] > 1 {
		d.fail("bad bool")
		return false
	}
	v := d.b[0] == 1
	d.b = d.b[1:]
	return v
}

// len reads a list header whose elements each take at least minSize
// bytes. ok is false for a nil list or after an error. A count that the
// bytes left cannot hold is corrupt and never reaches an allocation.
func (d *decoder) len(minSize int) (n int, ok bool) {
	h := d.uvarint()
	if d.err != nil || h == 0 {
		return 0, false
	}
	if h-1 > uint64(len(d.b)/minSize) {
		d.fail("count %d exceeds the %d bytes left", h-1, len(d.b))
		return 0, false
	}
	return int(h - 1), true
}

// decodeMap reads a map written by appendMap, whose entries each take at
// least minSize bytes; val reads one value. Keys must be strictly
// ascending, which also rules out duplicates.
func decodeMap[K ~string, V any](d *decoder, minSize int, val func() V) map[K]V {
	n, ok := d.len(minSize)
	if !ok {
		return nil
	}
	m := make(map[K]V, n)
	var prev K
	for i := 0; i < n && d.err == nil; i++ {
		k := K(d.string())
		if i > 0 && k <= prev {
			d.fail("map key %q out of order after %q", k, prev)
		}
		m[k], prev = val(), k
	}
	return m
}

func (d *decoder) value() value.Value {
	switch k := value.Kind(d.uvarint()); k {
	case value.KindNil:
		return value.Nil()
	case value.KindUnit:
		return value.Unit()
	case value.KindInt:
		return value.Int(d.varint())
	case value.KindBool:
		return value.Bool(d.bool())
	case value.KindString:
		return value.Str(d.string())
	case value.KindPair:
		i := d.varint()
		return value.Pair(i, d.varint())
	default:
		d.fail("unknown value kind %d", k)
		return value.Nil()
	}
}
