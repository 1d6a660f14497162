//go:build !amd64

package tensor

import "testing"

// atBothPaths runs fn once: off amd64 the portable path is the only one.
func atBothPaths(t *testing.T, fn func(t *testing.T)) { t.Run("go", fn) }
