package controlplane

import (
	"reflect"
	"testing"
)

// TestMemJournalKeepsOrderAcrossBlocks appends across several storage
// blocks and checks that Entries replays every record in append order and
// returns a copy the caller may modify.
func TestMemJournalKeepsOrderAcrossBlocks(t *testing.T) {
	j := NewMemJournal()
	if es, _ := j.Entries(); es != nil {
		t.Fatalf("empty journal replays %v", es)
	}
	const n = 3*memJournalBlock + 5
	for i := 0; i < n; i++ {
		e := JournalEntry{Seq: uint64(i), Event: EvIntent}
		if i%7 == 0 {
			e.Err = "payload"
		}
		if err := j.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	es, err := j.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != n {
		t.Fatalf("replayed %d entries, appended %d", len(es), n)
	}
	for i, e := range es {
		if e.Seq != uint64(i) || (e.Err == "payload") != (i%7 == 0) {
			t.Fatalf("entry %d replayed as %+v", i, e)
		}
	}
	es[0].Seq = 99
	if again, _ := j.Entries(); again[0].Seq != 0 {
		t.Fatal("Entries aliases the journal's storage")
	}
}

// TestMemJournalRoundTripsEveryField sets each JournalEntry field alone, and
// then all of them, and checks that MemJournal replays the record exactly,
// so a field added to JournalEntry cannot be dropped by the compact
// in-memory form.
func TestMemJournalRoundTripsEveryField(t *testing.T) {
	full := JournalEntry{}
	fv := reflect.ValueOf(&full).Elem()
	var cases []JournalEntry
	for i := 0; i < fv.NumField(); i++ {
		var e JournalEntry
		ev := reflect.ValueOf(&e).Elem()
		for _, v := range []reflect.Value{ev.Field(i), fv.Field(i)} {
			switch v.Kind() {
			case reflect.String:
				v.SetString("x")
			case reflect.Int, reflect.Int64:
				v.SetInt(7)
			case reflect.Uint16, reflect.Uint64:
				v.SetUint(7)
			case reflect.Slice:
				v.Set(reflect.MakeSlice(v.Type(), 0, 0))
			default:
				t.Fatalf("field %s is %s; extend this test", fv.Type().Field(i).Name, v.Kind())
			}
		}
		cases = append(cases, e)
	}
	// A header-only record naming its op, event and step from the journal
	// constants is packed; one naming anything else is kept whole.
	packed := JournalEntry{Seq: 3, SagaID: "s", Op: OpDetach, Event: EvIntent, Step: StepReleasePaths, Epoch: 9}
	cases = append(cases, full, JournalEntry{}, packed, JournalEntry{Op: OpAttach, Event: EvDone, Step: "other"})
	j := NewMemJournal()
	for _, e := range cases {
		j.Append(e) //nolint:errcheck // MemJournal.Append cannot fail
	}
	got, _ := j.Entries()
	if !reflect.DeepEqual(got, cases) {
		t.Fatalf("replayed %+v\nappended %+v", got, cases)
	}
	if n := len(cases); j.blocks[0][n-2].whole != nil || j.blocks[0][n-1].whole == nil {
		t.Fatalf("record %+v packed: %v, record %+v packed: %v; want true, false",
			cases[n-2], j.blocks[0][n-2].whole == nil, cases[n-1], j.blocks[0][n-1].whole == nil)
	}
}
