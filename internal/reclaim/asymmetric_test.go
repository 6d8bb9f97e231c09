package reclaim

import (
	"testing"

	"qsense/internal/fence"
)

// TestAsymmetricPublicationStat: Stats.AsymmetricPublication follows the
// process-wide publication mode for the two schemes that publish
// fence-free hazard pointers, and stays false for every other scheme. The
// fence package's tests pin the mode itself: true in a linux/amd64 build
// without -race whose kernel accepts the membarrier registration, false
// under -race and elsewhere — so this test checks the field is true in the
// first case and false in the second.
func TestAsymmetricPublicationStat(t *testing.T) {
	for _, name := range Schemes() {
		pool := newTestPool()
		d, err := New(name, Config{Workers: 1, HPs: 1, Free: freeInto(pool), ManualRooster: true})
		if err != nil {
			t.Fatal(err)
		}
		want := fence.Asymmetric() && (name == "cadence" || name == "qsense")
		if got := d.Stats().AsymmetricPublication; got != want {
			t.Errorf("%s: AsymmetricPublication = %v, want %v", name, got, want)
		}
		d.Close()
	}
	t.Logf("fence.Asymmetric() = %v", fence.Asymmetric())
}
