// Command suppressfix seeds two unreachable oracles and suppresses each
// with a reasoned //xfm:ignore, one standalone and one trailing: the
// tree must report zero unsuppressed diagnostics.
package main

// refStamp is what a test compares a timestamp against.
//
//xfm:ignore unreachable reference of TestStampMatchesRef
func refStamp() int64 { return 0 }

func refTrailing() int64 { return 1 } //xfm:ignore unreachable reference of TestTrailingMatchesRef

func main() {
	println("suppressfix")
}
