package sqlmini

import (
	"fmt"
	"strings"
	"sync"
	"unicode"
)

type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokNumber
	tokString // 'quoted'
	tokHex    // X'...'
	tokSymbol // punctuation and operators
)

type token struct {
	kind tokenKind
	text string // keywords are upper-cased; idents keep original case
	pos  int
}

// keywords maps each keyword to itself, so a word upper-cased into a
// scratch buffer finds the keyword's own string without allocating one.
var keywords = func() map[string]string {
	m := make(map[string]string)
	for _, k := range strings.Fields(`CREATE TABLE PRIMARY KEY TIMESTAMP COLUMN NOT NULL
		INSERT INTO VALUES UPDATE SET WHERE DELETE FROM SELECT
		AND OR IS BETWEEN TRUE FALSE GROUP BY ORDER LIMIT DESC ASC AS OF`) {
		m[k] = k
	}
	return m
}()

// maxKeywordLen bounds the words looked up in keywords.
const maxKeywordLen = 16

type lexer struct {
	src  string
	pos  int
	toks []token
}

// tokenPool recycles the lexers' token slices. A parse copies tokens by
// value and keeps only their text — substrings of the source or fresh
// strings — so the slice is free again once the parse returns.
var tokenPool = sync.Pool{New: func() any { return new([]token) }}

// maxPooledTokens bounds the slices the pool keeps: one many-row INSERT
// must not pin its token slice for every later parse.
const maxPooledTokens = 4096

// getTokens returns an empty token slice from the pool, and putTokens
// returns it once the parse that lexed into it is done.
func getTokens() *[]token { return tokenPool.Get().(*[]token) }

func putTokens(buf *[]token) {
	if cap(*buf) > maxPooledTokens {
		return
	}
	clear(*buf) // drop the references into the source
	*buf = (*buf)[:0]
	tokenPool.Put(buf)
}

// lex appends src's tokens to toks and returns the slice, on error too,
// so a pooled slice is never lost.
func lex(src string, toks []token) ([]token, error) {
	l := lexer{src: src, toks: toks}
	for {
		l.skipSpace()
		if l.pos >= len(l.src) {
			l.emit(tokEOF, "", l.pos)
			return l.toks, nil
		}
		start := l.pos
		c := l.src[l.pos]
		switch {
		case c == '\'':
			s, err := l.lexString()
			if err != nil {
				return l.toks, err
			}
			l.emit(tokString, s, start)
		case (c == 'x' || c == 'X') && l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'':
			l.pos++
			s, err := l.lexString()
			if err != nil {
				return l.toks, err
			}
			l.emit(tokHex, s, start)
		case isIdentStart(c):
			l.lexWord(start)
		case c >= '0' && c <= '9':
			l.lexNumber(start, false)
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9' && l.lastAllowsNegative():
			l.pos++
			l.lexNumber(start, true)
		case c == '.' && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9':
			l.lexNumber(start, false)
		default:
			sym, err := l.lexSymbol()
			if err != nil {
				return l.toks, err
			}
			l.emit(tokSymbol, sym, start)
		}
	}
}

func (l *lexer) emit(kind tokenKind, text string, pos int) {
	l.toks = append(l.toks, token{kind: kind, text: text, pos: pos})
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) && unicode.IsSpace(rune(l.src[l.pos])) {
		l.pos++
	}
}

// lastAllowsNegative reports whether a '-' here begins a negative number
// literal rather than a binary minus: true at the start or after a
// symbol or keyword (e.g. after '(', ',', '=', AND).
func (l *lexer) lastAllowsNegative() bool {
	if len(l.toks) == 0 {
		return true
	}
	last := l.toks[len(l.toks)-1]
	switch last.kind {
	case tokSymbol:
		return last.text != ")" // after ')' a '-' is subtraction
	case tokKeyword:
		return true
	default:
		return false
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}

func (l *lexer) lexWord(start int) {
	for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
		l.pos++
	}
	word := l.src[start:l.pos]
	if len(word) <= maxKeywordLen {
		var up [maxKeywordLen]byte
		for i := 0; i < len(word); i++ {
			c := word[i]
			if c >= 'a' && c <= 'z' {
				c -= 'a' - 'A'
			}
			up[i] = c
		}
		if kw, ok := keywords[string(up[:len(word)])]; ok {
			l.emit(tokKeyword, kw, start)
			return
		}
	}
	l.emit(tokIdent, word, start)
}

func (l *lexer) lexNumber(start int, negPrefixed bool) {
	seenDot, seenExp := false, false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c >= '0' && c <= '9':
			l.pos++
		case c == '.' && !seenDot && !seenExp:
			seenDot = true
			l.pos++
		case (c == 'e' || c == 'E') && !seenExp && l.pos+1 < len(l.src) &&
			(l.src[l.pos+1] == '+' || l.src[l.pos+1] == '-' || (l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9')):
			seenExp = true
			l.pos++
			if l.src[l.pos] == '+' || l.src[l.pos] == '-' {
				l.pos++
			}
		default:
			goto done
		}
	}
done:
	l.emit(tokNumber, l.src[start:l.pos], start)
}

// lexString reads a quoted literal into a string of its own, never a
// substring of the source.
func (l *lexer) lexString() (string, error) {
	// l.pos is at the opening quote.
	l.pos++
	from := l.pos
	var b strings.Builder
	for l.pos < len(l.src) {
		if l.src[l.pos] != '\'' {
			l.pos++
			continue
		}
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
			b.WriteString(l.src[from : l.pos+1])
			l.pos += 2
			from = l.pos
			continue
		}
		s := l.src[from:l.pos]
		l.pos++
		if b.Len() > 0 {
			b.WriteString(s)
			return b.String(), nil
		}
		// A copy, not a substring: the value can outlive the statement —
		// an index keeps a key as long as its row lives — and must not
		// keep the statement's text alive with it.
		return strings.Clone(s), nil
	}
	return "", fmt.Errorf("sqlmini: unterminated string literal at %d", l.pos)
}

func (l *lexer) lexSymbol() (string, error) {
	two := ""
	if l.pos+1 < len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	switch two {
	case "<=", ">=", "<>", "!=":
		l.pos += 2
		if two == "!=" {
			return "<>", nil
		}
		return two, nil
	}
	c := l.src[l.pos]
	switch c {
	case '(', ')', ',', '=', '<', '>', '*', '+', '-':
		l.pos++
		return l.src[l.pos-1 : l.pos], nil
	}
	return "", fmt.Errorf("sqlmini: unexpected character %q at %d", c, l.pos)
}
