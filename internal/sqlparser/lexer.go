// Package sqlparser implements the lexer and recursive-descent parser for the
// SCOPE-like declarative dialect used throughout the repository. A script is
// a sequence of statements: named assignments of SELECT queries, PROCESS
// statements invoking user-defined operators (UDOs), and OUTPUT statements
// that define the job's results — mirroring how SCOPE scripts compose
// rowset-valued expressions.
package sqlparser

import (
	"fmt"
	"strings"
	"unicode"
)

// TokenKind enumerates lexical token classes.
type TokenKind uint8

const (
	TokEOF TokenKind = iota
	TokIdent
	TokKeyword
	TokNumber
	TokString
	TokParam // @name
	TokOp    // operators and punctuation
)

// Token is one lexeme with its source position.
type Token struct {
	Kind TokenKind
	Text string // keywords upper-cased; idents preserved
	Pos  int    // byte offset in the source
	Line int
}

var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"HAVING": true, "JOIN": true, "INNER": true, "LEFT": true, "ON": true,
	"AS": true, "AND": true, "OR": true, "NOT": true, "OUTPUT": true,
	"TO": true, "PROCESS": true, "USING": true, "DEPENDS": true,
	"NONDETERMINISTIC": true, "UNION": true, "ALL": true, "DISTINCT": true,
	"ORDER": true, "ASC": true, "DESC": true, "TRUE": true, "FALSE": true,
	"NULL": true, "EXTRACT": true, "SAMPLE": true, "PERCENT": true,
	"IS": true, "IN": true, "BETWEEN": true, "LIKE": true,
}

// kwByLen buckets the canonical keyword strings by byte length so the hot
// ident path can canonicalize case without building an upper-cased copy: a
// candidate word is compared (ASCII case-folded, in place) against only the
// handful of keywords of the same length, and on match the token borrows the
// canonical constant instead of allocating.
var kwByLen [][]string

func init() {
	maxLen := 0
	for kw := range keywords {
		if len(kw) > maxLen {
			maxLen = len(kw)
		}
	}
	kwByLen = make([][]string, maxLen+1)
	for kw := range keywords {
		kwByLen[len(kw)] = append(kwByLen[len(kw)], kw)
	}
}

// asciiFoldEq reports whether word equals kw under ASCII case folding; kw is
// a canonical keyword (upper-case ASCII) of the same length as word.
func asciiFoldEq(word, kw string) bool {
	for i := 0; i < len(word); i++ {
		c := word[i]
		if c >= 'a' && c <= 'z' {
			c -= 'a' - 'A'
		}
		if c != kw[i] {
			return false
		}
	}
	return true
}

// keywordCanon returns the canonical (upper-case) spelling of word if it is a
// keyword. ASCII words — the only kind real scripts contain — resolve with
// zero allocations; words with multi-byte runes fall back to strings.ToUpper
// to preserve the historical Unicode-folding behavior exactly.
func keywordCanon(word string) (string, bool) {
	if len(word) >= len(kwByLen) {
		return "", false
	}
	ascii := true
	for i := 0; i < len(word); i++ {
		if word[i] >= 0x80 {
			ascii = false
			break
		}
	}
	if !ascii {
		up := strings.ToUpper(word)
		if keywords[up] {
			return up, true
		}
		return "", false
	}
	for _, kw := range kwByLen[len(word)] {
		if asciiFoldEq(word, kw) {
			return kw, true
		}
	}
	return "", false
}

// singleOps is the set of one-byte operators; a matched token's Text is a
// substring of this constant, so single-char operators never allocate.
const singleOps = "+-*/%(),.;=<>"

// Lexer is an incremental tokenizer over a source string. The zero value is
// ready after Reset; Next returns one token at a time without buffering the
// stream, and for well-formed input the only allocations are string literals
// that contain doubled-quote escapes (which must be rewritten).
type Lexer struct {
	src  string
	pos  int
	line int
}

// NewLexer creates a lexer over src.
func NewLexer(src string) *Lexer {
	l := &Lexer{}
	l.Reset(src)
	return l
}

// Reset re-targets the lexer at src, restarting at offset 0 line 1. It lets a
// value-typed Lexer be reused without heap allocation.
func (l *Lexer) Reset(src string) {
	l.src = src
	l.pos = 0
	l.line = 1
}

// Lex returns all tokens including a trailing EOF token, or an error with
// line information for unterminated strings or illegal characters.
func (l *Lexer) Lex() ([]Token, error) {
	// One amortized allocation: scripts average well above 4 bytes/token, so
	// the estimate rarely regrows.
	toks := make([]Token, 0, len(l.src)/4+4)
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == TokEOF {
			return toks, nil
		}
	}
}

// Next returns the next token. Token.Text aliases the source string (or a
// canonical constant) whenever possible; only escaped string literals copy.
func (l *Lexer) Next() (Token, error) {
	// Skip whitespace and comments.
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			end := strings.Index(l.src[l.pos+2:], "*/")
			if end < 0 {
				return Token{}, fmt.Errorf("line %d: unterminated block comment", l.line)
			}
			l.line += strings.Count(l.src[l.pos:l.pos+2+end+2], "\n")
			l.pos += 2 + end + 2
		default:
			goto lexed
		}
	}
lexed:
	if l.pos >= len(l.src) {
		return Token{Kind: TokEOF, Pos: l.pos, Line: l.line}, nil
	}
	start, line := l.pos, l.line
	c := l.src[l.pos]

	switch {
	case c == '@':
		l.pos++
		for l.pos < len(l.src) && identByte[l.src[l.pos]] {
			l.pos++
		}
		if l.pos == start+1 {
			return Token{}, fmt.Errorf("line %d: bare '@' without parameter name", line)
		}
		return Token{Kind: TokParam, Text: l.src[start+1 : l.pos], Pos: start, Line: line}, nil

	case identStart[c]:
		for l.pos < len(l.src) && identByte[l.src[l.pos]] {
			l.pos++
		}
		word := l.src[start:l.pos]
		if canon, ok := keywordCanon(word); ok {
			return Token{Kind: TokKeyword, Text: canon, Pos: start, Line: line}, nil
		}
		return Token{Kind: TokIdent, Text: word, Pos: start, Line: line}, nil

	case c >= '0' && c <= '9':
		seenDot := false
		for l.pos < len(l.src) {
			d := l.src[l.pos]
			if d == '.' && !seenDot {
				seenDot = true
				l.pos++
				continue
			}
			if d < '0' || d > '9' {
				break
			}
			l.pos++
		}
		return Token{Kind: TokNumber, Text: l.src[start:l.pos], Pos: start, Line: line}, nil

	case c == '\'' || c == '"':
		return l.lexString(c, start, line)

	default:
		// Multi-byte operators first ("<>" and "==" normalize to the
		// canonical forms the parser matches on).
		if l.pos+1 < len(l.src) {
			c2 := l.src[l.pos+1]
			var text string
			switch {
			case c == '<' && c2 == '=':
				text = "<="
			case c == '>' && c2 == '=':
				text = ">="
			case c == '!' && c2 == '=':
				text = "!="
			case c == '<' && c2 == '>':
				text = "!="
			case c == '=' && c2 == '=':
				text = "="
			}
			if text != "" {
				l.pos += 2
				return Token{Kind: TokOp, Text: text, Pos: start, Line: line}, nil
			}
		}
		if i := strings.IndexByte(singleOps, c); i >= 0 {
			l.pos++
			return Token{Kind: TokOp, Text: singleOps[i : i+1], Pos: start, Line: line}, nil
		}
		return Token{}, fmt.Errorf("line %d: illegal character %q", line, rune(c))
	}
}

// lexString scans a quoted literal starting at the opening quote. Literals
// without doubled-quote escapes alias the source directly; escaped ones are
// the lexer's only unavoidable copy.
func (l *Lexer) lexString(quote byte, start, line int) (Token, error) {
	l.pos++ // opening quote
	bodyStart := l.pos
	escaped := false
	for l.pos < len(l.src) {
		d := l.src[l.pos]
		if d == quote {
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == quote {
				escaped = true
				l.pos += 2
				continue
			}
			text := l.src[bodyStart:l.pos]
			if escaped {
				text = strings.ReplaceAll(text, string([]byte{quote, quote}), string(quote))
			}
			l.pos++
			return Token{Kind: TokString, Text: text, Pos: start, Line: line}, nil
		}
		if d == '\n' {
			l.line++
		}
		l.pos++
	}
	return Token{}, fmt.Errorf("line %d: unterminated string literal", line)
}

// AppendNormalized appends the token stream of src to dst in a canonical,
// whitespace- and comment-insensitive single-line form and returns the
// extended buffer. Two scripts normalize equal iff they lex to the same token
// stream, so the result is a sound plan-cache key. On a lex error it returns
// dst cut back to its length on entry, and false. It allocates only when dst
// must grow or the lexer copies (a literal with a doubled quote, a word with
// non-ASCII bytes).
func AppendNormalized(dst []byte, src string) ([]byte, bool) {
	var l Lexer
	l.Reset(src)
	start, first := len(dst), true
	for {
		t, err := l.Next()
		if err != nil {
			return dst[:start], false
		}
		if t.Kind == TokEOF {
			return dst, true
		}
		if !first {
			dst = append(dst, ' ')
		}
		first = false
		switch t.Kind {
		case TokString:
			dst = append(dst, '\'')
			for i := 0; i < len(t.Text); i++ {
				if t.Text[i] == '\'' {
					dst = append(dst, '\'')
				}
				dst = append(dst, t.Text[i])
			}
			dst = append(dst, '\'')
		case TokParam:
			dst = append(dst, '@')
			dst = append(dst, t.Text...)
		default:
			dst = append(dst, t.Text...)
		}
	}
}

// identStart and identByte classify every byte once: '_' or unicode.IsLetter
// of the byte read as a rune (so the Latin-1 letters from 0x80 up count) and,
// after the first byte, the ASCII digits.
var identStart, identByte = func() (start, part [256]bool) {
	for c := 0; c < 256; c++ {
		start[c] = c == '_' || unicode.IsLetter(rune(c))
		part[c] = start[c] || (c >= '0' && c <= '9')
	}
	return
}()
