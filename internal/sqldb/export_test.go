package sqldb

import "errors"

// ParseSeeds are the parser table tests' inputs, for the external fuzz
// target.
var ParseSeeds = func() []string {
	var out []string
	for _, c := range parseBad {
		out = append(out, c.src)
	}
	return append(out, parseGood...)
}()

// ParseErrorOffset returns the source offset a lexer or parser error
// carries; ok is false for any other error.
func ParseErrorOffset(err error) (offset int, ok bool) {
	var le *lexError
	if errors.As(err, &le) {
		return le.pos, true
	}
	return 0, false
}

// DrainParsed empties the process-wide parse cache and returns the
// statement texts it held: every text the engine parsed since the last
// drain (a text a DB had already prepared is not parsed again).
func DrainParsed() []string {
	parseMu.Lock()
	defer parseMu.Unlock()
	out := make([]string, 0, len(parseCache.m))
	for text := range parseCache.m {
		out = append(out, text)
	}
	parseCache = newLRU(parseCacheSize)
	return out
}

// len is the column's cell count.
func (v *colVec) len() int { return len(v.words) + len(v.codes) }

// narrowKeyHashTo keeps the low bits of every group key hash a hold
// looks up (idKeys.hold), so that distinct keys collide: 64 keeps all.
func (db *DB) narrowKeyHashTo(bits uint) { db.narrowKeyHash = ^uint64(0) << bits }
