package recovery

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"weihl83/internal/adts"
	"weihl83/internal/histories"
	"weihl83/internal/spec"
	"weihl83/internal/value"
)

// codecSpecs covers an order-insensitive and two order-sensitive state
// codecs: an account, a FIFO queue and an integer set.
func codecSpecs() map[histories.ObjectID]spec.SerialSpec {
	return map[histories.ObjectID]spec.SerialSpec{
		"a": adts.AccountSpec{},
		"b": adts.AccountSpec{},
		"q": adts.QueueSpec{},
		"s": adts.IntSetSpec{},
	}
}

// stateAfter runs invs from st's spec's initial state.
func stateAfter(t testing.TB, s spec.SerialSpec, invs ...spec.Invocation) spec.State {
	t.Helper()
	st := s.Init()
	for _, inv := range invs {
		out, err := spec.Apply(st, inv)
		if err != nil {
			t.Fatal(err)
		}
		st = out.Next
	}
	return st
}

// sameRecord compares every field of two records, checkpoint states by
// their Key (a decoded state is equal to the original, not identical).
func sameRecord(a, b Record) bool {
	if !reflect.DeepEqual(stateKeys(a.States), stateKeys(b.States)) {
		return false
	}
	a.States, b.States = nil, nil
	return reflect.DeepEqual(a, b)
}

// stateKeys maps each state to its Key, keeping nil and empty apart.
func stateKeys(m map[histories.ObjectID]spec.State) map[histories.ObjectID]string {
	if m == nil {
		return nil
	}
	keys := make(map[histories.ObjectID]string, len(m))
	for id, st := range m {
		keys[id] = st.Key()
	}
	return keys
}

// codecRecords is one record per case of the codec table: every record
// kind and migration direction, every value kind in arguments and
// results, and every collection field nil, empty and full.
func codecRecords(t testing.TB) map[string]Record {
	t.Helper()
	queue := stateAfter(t, adts.QueueSpec{},
		spec.Invocation{Op: adts.OpEnqueue, Arg: value.Int(3)},
		spec.Invocation{Op: adts.OpEnqueue, Arg: value.Int(1)},
		spec.Invocation{Op: adts.OpEnqueue, Arg: value.Int(2)})
	set := stateAfter(t, adts.IntSetSpec{},
		spec.Invocation{Op: adts.OpInsert, Arg: value.Int(-4)},
		spec.Invocation{Op: adts.OpInsert, Arg: value.Int(9)})
	return map[string]Record{
		"zero intentions": {Kind: RecordIntentions},
		"intentions": {Kind: RecordIntentions, Txn: "t1", Object: "a", TS: 42,
			Calls: []spec.Call{
				call(adts.OpDeposit, value.Int(5), value.Unit()),
				call(adts.OpBalance, value.Nil(), value.Int(-7)),
			}},
		"every value kind": {Kind: RecordIntentions, Txn: "t2", Object: "x",
			Calls: []spec.Call{
				call("nil", value.Nil(), value.Nil()),
				call("unit", value.Unit(), value.Unit()),
				call("int", value.Int(math.MinInt64), value.Int(math.MaxInt64)),
				call("bool", value.Bool(true), value.Bool(false)),
				call("string", value.Str(""), value.Str("héllo\x00wörld")),
				call("pair", value.Pair(-1, math.MaxInt64), value.Pair(math.MinInt64, 0)),
			}},
		"empty calls":        {Kind: RecordIntentions, Txn: "t3", Object: "a", Calls: []spec.Call{}},
		"empty op":           {Kind: RecordIntentions, Txn: "t3", Object: "a", Calls: []spec.Call{{}}},
		"participants":       {Kind: RecordIntentions, Txn: "t4", Object: "a", Participants: []string{"site-B", "site-A", ""}},
		"empty participants": {Kind: RecordIntentions, Txn: "t4", Object: "a", Participants: []string{}},
		"migrate out":        {Kind: RecordIntentions, Txn: "m1", Object: "a", Migrate: MigrateOut, RingV: 7},
		"migrate in": {Kind: RecordIntentions, Txn: "m1", Object: "a", Migrate: MigrateIn, RingV: math.MaxUint64,
			States: map[histories.ObjectID]spec.State{"a": adts.AccountState(77)}},
		"replica seed": {Kind: RecordIntentions, Txn: "repl-seed!q", Object: "q", Migrate: ReplicaIn, TS: 9,
			States: map[histories.ObjectID]spec.State{"q": queue}},
		"replica delivery": {Kind: RecordIntentions, Txn: "repl!1", Object: "q", Migrate: ReplicaIn, TS: math.MinInt64,
			Calls: []spec.Call{call(adts.OpEnqueue, value.Int(4), value.Unit())}},
		"commit":    {Kind: RecordCommit, Txn: "t1", TS: math.MaxInt64},
		"abort":     {Kind: RecordAbort, Txn: "t1", TS: -1},
		"installed": {Kind: RecordInstalled, Txn: "t1", Object: "a"},
		"checkpoint": {Kind: RecordCheckpoint,
			States: map[histories.ObjectID]spec.State{
				"a": adts.AccountState(5), "b": adts.AccountState(0), "q": queue, "s": set},
			Decided:   map[histories.ActivityID]bool{"t1": true, "t3": true, "t2": true},
			Hosted:    map[histories.ObjectID]bool{"a": true, "b": false, "q": true},
			ReplicaTS: map[histories.ObjectID]histories.Timestamp{"q": 12, "s": -3}},
		"checkpoint empty maps": {Kind: RecordCheckpoint,
			States:    map[histories.ObjectID]spec.State{},
			Decided:   map[histories.ActivityID]bool{},
			Hosted:    map[histories.ObjectID]bool{},
			ReplicaTS: map[histories.ObjectID]histories.Timestamp{}},
		"checkpoint nil maps": {Kind: RecordCheckpoint},
		"checkpoint states only": {Kind: RecordCheckpoint,
			States: map[histories.ObjectID]spec.State{"q": adts.QueueSpec{}.Init()}},
	}
}

// TestRecordCodecRoundTrip: every record in the table decodes to itself.
// sameRecord tells a nil collection from an empty one, so the table's nil
// and empty cases also check that the two stay distinct.
func TestRecordCodecRoundTrip(t *testing.T) {
	specs := codecSpecs()
	for name, r := range codecRecords(t) {
		t.Run(name, func(t *testing.T) {
			payload, err := encodeRecord(r, specs)
			if err != nil {
				t.Fatal(err)
			}
			if payload[0] != recordFormat {
				t.Fatalf("leading byte 0x%02x, want the format byte", payload[0])
			}
			got, err := decodeRecord(payload, specs)
			if err != nil {
				t.Fatal(err)
			}
			if !sameRecord(got, r) {
				t.Fatalf("round trip changed the record:\n got %+v\nwant %+v", got, r)
			}
		})
	}
}

// TestRecordCodecDeterministic: map keys are written in sorted order, so
// one record encodes to the same bytes every time, however its maps were
// built.
func TestRecordCodecDeterministic(t *testing.T) {
	specs := codecSpecs()
	cp := codecRecords(t)["checkpoint"]
	want, err := encodeRecord(cp, specs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		// Rebuild the maps in a different insertion order each time.
		re := cp
		re.Decided = map[histories.ActivityID]bool{}
		for _, txn := range []histories.ActivityID{"t2", "t3", "t1"}[i%3:] {
			re.Decided[txn] = true
		}
		for _, txn := range []histories.ActivityID{"t2", "t3", "t1"}[:i%3] {
			re.Decided[txn] = true
		}
		got, err := encodeRecord(re, specs)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("encoding %d differs from the first", i)
		}
	}
}

// TestRecordCodecRejectsJSONEra: a payload in the JSON record encoding
// that preceded the binary format is ErrCorrupt, both from the decoder
// and from opening a log that holds one, and the error names the format.
func TestRecordCodecRejectsJSONEra(t *testing.T) {
	specs := codecSpecs()
	old := []byte(`{"k":1,"t":"t1","o":"a","c":[{"Inv":{"Op":"deposit","Arg":{"kind":"int","int":5}},"Result":{"kind":"unit"}}]}`)
	_, err := decodeRecord(old, specs)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("JSON payload = %v, want ErrCorrupt", err)
	}
	if !strings.Contains(err.Error(), "format") {
		t.Errorf("error %q does not name the record format", err)
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName(0)), appendFrame(nil, old), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileWAL(FileWALOptions{Dir: dir, Specs: specs}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("opening a JSON-era log = %v, want ErrCorrupt", err)
	}
}

// TestRecordCodecRejectsMalformed: checksum-valid payloads that do not
// follow the layout are ErrCorrupt, never a partial record or a panic.
func TestRecordCodecRejectsMalformed(t *testing.T) {
	specs := codecSpecs()
	full, err := encodeRecord(codecRecords(t)["checkpoint"], specs)
	if err != nil {
		t.Fatal(err)
	}
	intent, err := encodeRecord(codecRecords(t)["every value kind"], specs)
	if err != nil {
		t.Fatal(err)
	}
	// header is format, kind intentions, empty txn and object, ts 0,
	// no migration, ring version 0.
	header := []byte{recordFormat, byte(RecordIntentions), 0, 0, 0, 0, 0}
	nilTail := []byte{0, 0, 0, 0, 0, 0} // every list nil
	cases := map[string][]byte{
		"empty":           {},
		"trailing byte":   append(append([]byte(nil), full...), 0),
		"unknown kind":    append([]byte{recordFormat, 9, 0, 0, 0, 0, 0}, nilTail...),
		"zero kind":       append([]byte{recordFormat, 0, 0, 0, 0, 0, 0}, nilTail...),
		"unknown migrate": append([]byte{recordFormat, 1, 0, 0, 0, 4, 0}, nilTail...),
		"string too long": {recordFormat, 1, 200, 'a'},
		"huge count":      append(append([]byte(nil), header...), 0xff, 0xff, 0xff, 0xff, 0x0f),
		"bad value kind":  append(append([]byte(nil), header...), 2, 0, 9, 0, 0, 0, 0, 0, 0, 0),
		"bad bool":        append(append([]byte(nil), header...), 2, 0, byte(value.KindBool), 2, 0, 0, 0, 0, 0, 0),
		"unsorted keys":   {recordFormat, byte(RecordCheckpoint), 0, 0, 0, 0, 0, 0, 0, 0, 3, 1, 'b', 1, 'a', 0, 0},
		"duplicate keys":  {recordFormat, byte(RecordCheckpoint), 0, 0, 0, 0, 0, 0, 0, 0, 3, 1, 'a', 1, 'a', 0, 0},
		"bad varint":      {recordFormat, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
	}
	// Every strict prefix of a valid payload is short.
	for _, p := range [][]byte{full, intent} {
		for n := 1; n < len(p); n++ {
			cases[fmt.Sprintf("%d-byte prefix of a %d-byte payload", n, len(p))] = p[:n]
		}
	}
	for name, payload := range cases {
		if _, err := decodeRecord(payload, specs); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: decode = %v, want ErrCorrupt", name, err)
		}
	}
}

// TestRecordCodecMissingSpec: a checkpoint naming an object the reader
// has no spec for is a configuration error, not corruption.
func TestRecordCodecMissingSpec(t *testing.T) {
	payload, err := encodeRecord(codecRecords(t)["checkpoint"], codecSpecs())
	if err != nil {
		t.Fatal(err)
	}
	_, err = decodeRecord(payload, map[histories.ObjectID]spec.SerialSpec{"a": adts.AccountSpec{}})
	if err == nil || errors.Is(err, ErrCorrupt) {
		t.Fatalf("decode without the queue's spec = %v, want a non-corrupt configuration error", err)
	}
	if _, err := encodeRecord(codecRecords(t)["checkpoint"], nil); err == nil {
		t.Fatal("encoded checkpoint states with no specs")
	}
}

// FuzzRecordDecode feeds arbitrary payload bytes to the record decoder.
// The contract: every input is ErrCorrupt, a missing-spec configuration
// error, or a record whose re-encoding decodes to the same record and is
// itself a fixed point of decode-then-encode. It never panics, and no
// length prefix sizes an allocation the payload cannot back.
func FuzzRecordDecode(f *testing.F) {
	specs := codecSpecs()
	for _, r := range codecRecords(f) {
		payload, err := encodeRecord(r, specs)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	f.Add([]byte(`{"k":2,"t":"t1"}`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, payload []byte) {
		r, err := decodeRecord(payload, specs)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !strings.Contains(err.Error(), "with no spec") {
				t.Fatalf("decode error is neither ErrCorrupt nor a missing spec: %v", err)
			}
			return
		}
		again, err := encodeRecord(r, specs)
		if err != nil {
			t.Fatalf("decoded record does not re-encode: %v", err)
		}
		r2, err := decodeRecord(again, specs)
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		if !sameRecord(r, r2) {
			t.Fatalf("re-encoding changed the record:\n got %+v\nwant %+v", r2, r)
		}
		third, err := encodeRecord(r2, specs)
		if err != nil || !bytes.Equal(third, again) {
			t.Fatalf("encoding is not canonical: %x then %x (%v)", again, third, err)
		}
	})
}
