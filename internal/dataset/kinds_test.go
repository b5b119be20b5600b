package dataset

import (
	"reflect"
	"strings"
	"testing"
)

// sliceFields lists the names of Store's slice-typed fields: the row
// kinds, as the struct itself declares them.
func sliceFields() []string {
	var names []string
	typ := reflect.TypeOf(Store{})
	for i := 0; i < typ.NumField(); i++ {
		if typ.Field(i).Type.Kind() == reflect.Slice {
			names = append(names, typ.Field(i).Name)
		}
	}
	return names
}

// TestKindTableCoversStore is the fence around "the kinds are enumerated
// once": every slice-typed field of Store must be claimed by exactly one
// entry of Kinds — a field added without a table entry would be silently
// skipped by Merge, Save, extract and the segment store alike — and the
// entries' CSV identities and RowCounts fields must not collide.
func TestKindTableCoversStore(t *testing.T) {
	claimed := make(map[string]int)
	files, headers, counts := make(map[string]bool), make(map[string]bool), make(map[*int]bool)
	var rc RowCounts
	for i := range Kinds {
		k := &Kinds[i]
		st := &Store{}
		k.Alloc(st, 1, 0)
		var fields []string
		for _, name := range sliceFields() {
			if reflect.ValueOf(st).Elem().FieldByName(name).Len() == 1 {
				fields = append(fields, name)
			}
		}
		if len(fields) != 1 || k.Len(st) != 1 {
			t.Errorf("kind %d (%s) claims fields %v, want exactly one", i, k.File, fields)
		}
		for _, name := range fields {
			claimed[name]++
		}
		header := strings.Join(k.Header, ",")
		if k.File == "" || files[k.File] || k.File == FileRoster || k.File == FileHeartbeats {
			t.Errorf("kind %d: file name %q is empty or taken", i, k.File)
		}
		if len(k.Header) == 0 || headers[header] {
			t.Errorf("kind %d (%s): header %q is empty or taken", i, k.File, header)
		}
		if c := k.Count(&rc); counts[c] || c == &rc.Routers {
			t.Errorf("kind %d (%s): RowCounts field is taken", i, k.File)
		}
		files[k.File], headers[header], counts[k.Count(&rc)] = true, true, true
	}
	for _, name := range sliceFields() {
		if claimed[name] != 1 {
			t.Errorf("Store.%s is claimed by %d entries of Kinds, want 1", name, claimed[name])
		}
	}
	if want := reflect.TypeOf(rc).NumField() - 1; len(counts) != want {
		t.Errorf("Kinds address %d RowCounts fields, the struct has %d besides Routers", len(counts), want)
	}
}
