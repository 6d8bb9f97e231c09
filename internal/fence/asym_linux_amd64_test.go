//go:build linux && amd64 && !race

package fence

import (
	"sync/atomic"
	"testing"
)

// TestAsymmetricMatchesKernel: the mode follows the kernel. Where the
// query offers both private-expedited commands, registration must have
// succeeded at init and Publish must be the plain store; where it does not
// (old kernel, seccomp filter), the fallback is the atomic store.
func TestAsymmetricMatchesKernel(t *testing.T) {
	const need = cmdPrivateExpedited | cmdRegisterPrivateExpedited
	mask, errno := membarrier(cmdQuery)
	supported := errno == 0 && mask&need == need
	if Asymmetric() != supported {
		t.Fatalf("Asymmetric()=%v but the kernel query says supported=%v (mask %#x, errno %v)",
			Asymmetric(), supported, mask, errno)
	}
	t.Logf("membarrier query mask %#x errno %v: asymmetric=%v", mask, errno, Asymmetric())
}

// TestBothModes drives Publish and Heavy through the registered and the
// unregistered path in one binary, by flipping the mode around the calls.
// Nothing else in this package's tests runs concurrently with it.
func TestBothModes(t *testing.T) {
	saved := asymmetric
	defer func() { asymmetric = saved }()
	for _, mode := range []bool{false, saved} {
		asymmetric = mode
		var p atomic.Uint64
		Heavy() // a no-op when unregistered, a barrier when registered
		Publish(&p, 42)
		Heavy()
		if p.Load() != 42 {
			t.Fatalf("asymmetric=%v: Publish lost the value", mode)
		}
	}
}
