package fence

import (
	"sync/atomic"
	"testing"
)

// TestPublishStores runs in whichever mode the build selected: the plain
// store in a non-race linux/amd64 build where membarrier registered, the
// atomic store everywhere else (the race-detector CI jobs among them).
// Heavy is callable on either side of the publications.
func TestPublishStores(t *testing.T) {
	var slots [4]atomic.Uint64
	Heavy()
	for i := range slots {
		Publish(&slots[i], uint64(i+1)<<8)
	}
	Heavy()
	for i := range slots {
		if got, want := slots[i].Load(), uint64(i+1)<<8; got != want {
			t.Fatalf("slot %d = %#x after Publish, want %#x (asymmetric=%v)", i, got, want, Asymmetric())
		}
	}
	Publish(&slots[0], 0)
	if slots[0].Load() != 0 {
		t.Fatal("Publish(0) did not clear the slot")
	}
}
