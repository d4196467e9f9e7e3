//go:build !goexperiment.synctest

package main

import (
	"fmt"
	"os"
)

// Without the synctest experiment there is no virtual-time bubble, and the
// modeled numbers would measure the host instead of the cluster, so the
// benchmark refuses to run rather than report them.
func main() {
	fmt.Fprintln(os.Stderr, "redbud-perfbench: built without GOEXPERIMENT=synctest; "+
		"every workload runs in a testing/synctest bubble. Rebuild with GOEXPERIMENT=synctest "+
		"(perfbench/run.sh does this).")
	os.Exit(2)
}
