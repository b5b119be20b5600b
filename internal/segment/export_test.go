package segment

// OpenOver is Open over a caller-built dedupe index, so tests can run
// the store against a window a few keys wide or one already full.
var OpenOver = open
