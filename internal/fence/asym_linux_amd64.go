//go:build linux && amd64 && !race

package fence

import "syscall"

// membarrier(2). The syscall number is hard-coded: package syscall has no
// SYS_MEMBARRIER constant.
const (
	sysMembarrier = 324

	cmdQuery                    = 0
	cmdPrivateExpedited         = 1 << 3
	cmdRegisterPrivateExpedited = 1 << 4
)

// asymmetric is decided once, at package initialization: plain-store
// publication is enabled only when the kernel offers, and accepts this
// process's registration for, the private expedited barrier. A kernel that
// lacks membarrier, or a seccomp profile that blocks it (Docker's default
// does), leaves the process on atomic stores without any message.
var asymmetric = register()

func membarrier(cmd uintptr) (uintptr, syscall.Errno) {
	r, _, errno := syscall.Syscall(sysMembarrier, cmd, 0, 0)
	return r, errno
}

func register() bool {
	const need = cmdPrivateExpedited | cmdRegisterPrivateExpedited
	mask, errno := membarrier(cmdQuery)
	if errno != 0 || mask&need != need {
		return false
	}
	_, errno = membarrier(cmdRegisterPrivateExpedited)
	return errno == 0
}

// Heavy is the reclaimer's side of asymmetric publication: when Asymmetric,
// it issues membarrier(MEMBARRIER_CMD_PRIVATE_EXPEDITED), which executes a
// full memory barrier on every CPU currently running a thread of this
// process before it returns. Every Publish that completed before the call
// is visible to loads the caller issues after it. Without asymmetric mode
// every Publish is already an atomic store, and Heavy does nothing.
func Heavy() {
	if !asymmetric {
		return
	}
	if _, errno := membarrier(cmdPrivateExpedited); errno != 0 {
		// Registration succeeded, so the kernel contract rules this out;
		// carrying on would let reclaimers miss buffered hazard pointers.
		panic("fence: membarrier failed after registration: " + errno.Error())
	}
}
