package sqldb

import "errors"

// ParseSeeds are the parser table tests' inputs, for the external fuzz
// target.
var ParseSeeds = append(append([]string(nil), parseBad...), parseGood...)

// ParseErrorOffset returns the source offset a lexer or parser error
// carries; ok is false for any other error.
func ParseErrorOffset(err error) (offset int, ok bool) {
	var le *lexError
	if errors.As(err, &le) {
		return le.pos, true
	}
	return 0, false
}
