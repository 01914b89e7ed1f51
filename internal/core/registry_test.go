package core

import (
	"reflect"
	"strings"
	"testing"
)

func TestNewPolicy(t *testing.T) {
	for _, name := range PolicyNames() {
		a, err := NewPolicy(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a.Name() != name {
			t.Errorf("NewPolicy(%q).Name() = %q", name, a.Name())
		}
		b, err := NewPolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		// Go may give every zero-size value one address; those policies
		// carry no state to share.
		if a == b && reflect.TypeOf(a).Elem().Size() > 0 {
			t.Errorf("%s: two calls returned the same instance", name)
		}
	}
	if p, err := NewPolicy(""); err != nil || p.Name() != "rfh" {
		t.Errorf(`NewPolicy("") = %v, %v; want rfh`, p, err)
	}
	_, err := NewPolicy("nonexistent")
	if err == nil {
		t.Fatal("unknown policy accepted")
	}
	for _, name := range PolicyNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %q", err, name)
		}
	}
}
