package remote_test

import (
	"testing"

	"pka/internal/leakcheck"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }
