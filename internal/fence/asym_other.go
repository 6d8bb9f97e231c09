//go:build !linux || !amd64 || race

package fence

// Outside linux/amd64, and in race-detector builds (where a plain store
// next to atomic loads would be reported as the data race it formally
// is), every Publish is an atomic store and Heavy has nothing to drain.
const asymmetric = false

// Heavy does nothing: without asymmetric publication every Publish is
// already an atomic store.
func Heavy() {}
