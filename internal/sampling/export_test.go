package sampling

// Derived returns how many TaskKeys, pack keys and pack digests this process
// has hashed from scratch.
func Derived() [3]int64 {
	return [3]int64{derived.taskKeys.Load(), derived.packKeys.Load(), derived.digests.Load()}
}
