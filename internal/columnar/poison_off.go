//go:build !poisonpool

package columnar

const poisonReleased = false // see give
