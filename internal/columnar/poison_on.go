//go:build poisonpool

package columnar

const poisonReleased = true // see give
