package table

import "testing"

func TestClone(t *testing.T) {
	if New().Clone() == nil {
		t.Fatal("nil clone")
	}
}
