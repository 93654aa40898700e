#include "lang/parser.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <span>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "util/strings.h"

namespace gsls {

namespace {

enum class TokenKind {
  kName,      ///< lowercase identifier, quoted atom, or integer: `foo`, `0`
  kVariable,  ///< uppercase/underscore identifier: `X`, `_G1`, `_`
  kLParen,
  kRParen,
  kComma,
  kDot,
  kImplies,   ///< `:-`
  kQuery,     ///< `?-`
  kNot,       ///< `not` or `\+`
  kEof,
  kError,     ///< lexing failed; `Lexer::error()` says why
};

/// Printable token kinds (for diagnostics), indexed by `TokenKind`.
constexpr const char* kTokenKindNames[] = {
    "name", "variable", "'('", "')'", "','", "'.'", "':-'", "'?-'", "'not'",
    "end of input", "error"};
static_assert(std::size(kTokenKindNames) == size_t(TokenKind::kError) + 1);

/// A token: its kind, a view of its source text and the byte offset it
/// starts at. End of input has empty text.
struct Token {
  TokenKind kind;
  std::string_view text;
  size_t offset;
};

/// A name token's text: a quoted atom's token keeps its quotes, which
/// come off here along with the doubling of quotes inside. `buf` holds the
/// result only when there is a doubled quote to undo.
std::string_view NameText(std::string_view text, std::string* buf) {
  if (text.empty() || text.front() != '\'') return text;
  text = text.substr(1, text.size() - 2);
  if (std::find(text.begin(), text.end(), '\'') == text.end()) return text;
  buf->clear();
  for (size_t i = 0; i < text.size(); ++i) {
    buf->push_back(text[i]);
    if (text[i] == '\'') ++i;
  }
  return *buf;
}

/// Character classes of the C locale, one table lookup per byte.
enum : uint8_t {
  kSpace = 1,
  kDigit = 2,
  kWord = 4,   ///< letters, digits and `_`
  kUpper = 8,  ///< uppercase letters and `_`, which start a variable
};

constexpr std::array<uint8_t, 256> kCharClass = [] {
  std::array<uint8_t, 256> t{};
  for (char c : {' ', '\t', '\n', '\v', '\f', '\r'}) {
    t[static_cast<unsigned char>(c)] = kSpace;
  }
  for (int c = '0'; c <= '9'; ++c) t[c] = kDigit | kWord;
  for (int c = 'a'; c <= 'z'; ++c) t[c] = kWord;
  for (int c = 'A'; c <= 'Z'; ++c) t[c] = kWord | kUpper;
  t['_'] = kWord | kUpper;
  return t;
}();

bool Is(char c, uint8_t cls) {
  return (kCharClass[static_cast<unsigned char>(c)] & cls) != 0;
}

/// Pull lexer over a source buffer that must outlive it. `%` starts a line
/// comment. An unrecognized character or an unterminated quoted atom yields
/// `kError`; from then on `error()` holds the message and every pull yields
/// `kError`. Nothing is allocated per token: positions are byte offsets,
/// turned into line and column only for a message.
class Lexer {
 public:
  explicit Lexer(std::string_view src) : src_(src) {}

  const Status& error() const { return error_; }

  Token Next() {
    const size_t n = src_.size();
    if (!error_.ok()) return {TokenKind::kError, {}, n};
    for (; pos_ < n; ++pos_) {
      if (src_[pos_] == '%') {
        const size_t comment = pos_;
        pos_ = src_.find('\n', pos_);
        // End of input right after a comment is placed where it starts.
        if (pos_ == std::string_view::npos) {
          pos_ = n;
          return {TokenKind::kEof, {}, comment};
        }
      } else if (!Is(src_[pos_], kSpace)) {
        break;
      }
    }
    const size_t start = pos_;
    if (start == n) return {TokenKind::kEof, {}, n};
    auto token = [&](TokenKind kind, size_t len) {
      pos_ = start + len;
      return Token{kind, src_.substr(start, len), start};
    };
    const char c = src_[start];
    const char next = start + 1 < n ? src_[start + 1] : '\0';
    switch (c) {
      case '(': return token(TokenKind::kLParen, 1);
      case ')': return token(TokenKind::kRParen, 1);
      case ',': return token(TokenKind::kComma, 1);
      case '.': return token(TokenKind::kDot, 1);
      case ':':
        if (next == '-') return token(TokenKind::kImplies, 2);
        break;
      case '?':
        if (next == '-') return token(TokenKind::kQuery, 2);
        break;
      case '\\':
        if (next == '+') return token(TokenKind::kNot, 2);
        break;
      case '\'':
        // Quoted atom: '...'; no escapes beyond '' for a literal quote.
        for (size_t end = start + 1; end < n && src_[end] != '\n'; ++end) {
          if (src_[end] != '\'') continue;
          if (end + 1 < n && src_[end + 1] == '\'') {
            ++end;
            continue;
          }
          return token(TokenKind::kName, end + 1 - start);
        }
        return Fail("unterminated quoted atom", start);
      default:
        break;
    }
    if (!Is(c, kWord)) {
      return Fail(StrCat("unexpected character '", std::string(1, c), "'"),
                  start);
    }
    // An integer is a run of digits; an identifier runs over word bytes.
    const uint8_t run = Is(c, kDigit) ? kDigit : kWord;
    size_t end = start + 1;
    while (end < n && Is(src_[end], run)) ++end;
    Token t = token(TokenKind::kName, end - start);
    if (t.text == "not") {
      t.kind = TokenKind::kNot;
    } else if (Is(c, kUpper)) {
      t.kind = TokenKind::kVariable;
    }
    return t;
  }

  /// 1-based line and column of byte `offset`; columns count bytes, so a
  /// tab is one column.
  std::pair<size_t, size_t> LineCol(size_t offset) const {
    const std::string_view before = src_.substr(0, offset);
    // rfind's npos + 1 wraps to 0: the first line starts at offset 0.
    const size_t line_start = before.rfind('\n') + 1;
    return {1 + std::count(before.begin(), before.end(), '\n'),
            offset - line_start + 1};
  }

 private:
  Token Fail(std::string_view message, size_t offset) {
    const auto [line, col] = LineCol(offset);
    error_ = Status::InvalidArgument(
        StrCat(message, " at line ", line, " col ", col));
    pos_ = src_.size();
    return {TokenKind::kError, {}, offset};
  }

  std::string_view src_;
  size_t pos_ = 0;
  Status error_;
};

/// Recursive-descent parser pulling tokens from a `Lexer`, one token of
/// lookahead. Names stay views into the source, one argument stack and one
/// literal stack serve every nesting level, and the variable scope of a
/// clause or query is a flat list of (name, variable) pairs; `_` is fresh
/// at each occurrence. The first error is kept in `error_` and unwinds the
/// descent as a null term or a false.
class Parser {
 public:
  Parser(TermStore& store, std::string_view src)
      : store_(store), lexer_(src), tok_(lexer_.Next()) {}

  Result<Program> ParseProgramAll() {
    Program program(&store_);
    while (!Check(TokenKind::kEof)) {
      scope_.clear();
      Clause clause;
      if (!ParseClause(&clause)) return error_;
      program.AddClause(std::move(clause));
    }
    return program;
  }

  Result<Goal> ParseQueryAll() {
    Accept(TokenKind::kQuery);
    if (Check(TokenKind::kEof)) return Goal();
    if (!Accept(TokenKind::kDot)) {
      if (!ParseLiterals()) return error_;
      Accept(TokenKind::kDot);
    }
    if (!ExpectEof()) return error_;
    return Goal(lits_.begin(), lits_.end());
  }

  Result<const Term*> ParseTermAll() {
    const Term* t = ParseTerm();
    if (t == nullptr || !ExpectEof()) return error_;
    return t;
  }

 private:
  /// Records the error at the current token and returns false. A lexing
  /// error anywhere in the text outranks a parse error, so the rest of the
  /// text is lexed first.
  bool Fail(std::string_view message) {
    for (Token t = tok_; t.kind != TokenKind::kEof &&
                         t.kind != TokenKind::kError;) {
      t = lexer_.Next();
    }
    error_ = lexer_.error();
    if (!error_.ok()) return false;
    const auto [line, col] = lexer_.LineCol(tok_.offset);
    std::string buf;
    const std::string_view text = NameText(tok_.text, &buf);
    const char* quote = text.empty() ? "" : "'";
    error_ = Status::InvalidArgument(StrCat(
        message, " at line ", line, " col ", col, " (got ",
        kTokenKindNames[static_cast<int>(tok_.kind)], text.empty() ? "" : " ",
        quote, text, quote, ")"));
    return false;
  }

  bool ExpectEof() {
    return Check(TokenKind::kEof) || Fail("expected end of input");
  }

  bool Check(TokenKind k) const { return tok_.kind == k; }
  bool Accept(TokenKind k) {
    if (tok_.kind != k) return false;
    tok_ = lexer_.Next();
    return true;
  }

  bool ParseClause(Clause* clause) {
    clause->head = ParseAtom();
    if (clause->head == nullptr) return false;
    if (Accept(TokenKind::kImplies)) {
      if (!ParseLiterals()) return false;
      clause->body.assign(lits_.begin(), lits_.end());
    }
    return Accept(TokenKind::kDot) || Fail("expected '.'");
  }

  /// `l1, ..., ln` into `lits_`.
  bool ParseLiterals() {
    lits_.clear();
    do {
      const bool positive = !Accept(TokenKind::kNot);
      // Allow `not (atom)` as well as `not atom`.
      const bool paren = !positive && Accept(TokenKind::kLParen);
      const Term* atom = ParseAtom();
      if (atom == nullptr) return false;
      if (paren && !Accept(TokenKind::kRParen)) return Fail("expected ')'");
      lits_.push_back(Literal{atom, positive});
    } while (Accept(TokenKind::kComma));
    return true;
  }

  /// Atoms and terms share one grammar: name, optionally followed by a
  /// parenthesized argument list. An atom cannot be a bare variable.
  const Term* ParseAtom() {
    if (Check(TokenKind::kName)) return ParseTerm();
    Fail("expected predicate name");
    return nullptr;
  }

  const Term* ParseTerm() {
    const Token name = tok_;
    if (Accept(TokenKind::kVariable)) return VarFor(name.text);
    if (!Accept(TokenKind::kName)) {
      Fail("expected term");
      return nullptr;
    }
    const size_t base = args_.size();
    if (Accept(TokenKind::kLParen)) {
      do {
        const Term* arg = ParseTerm();
        if (arg == nullptr) return nullptr;
        args_.push_back(arg);
      } while (Accept(TokenKind::kComma));
      if (!Accept(TokenKind::kRParen)) {
        Fail("expected ')'");
        return nullptr;
      }
    }
    // The name is read only now: the arguments are done with `unquoted_`.
    const Term* t = store_.MakeApp(NameText(name.text, &unquoted_),
                                   std::span(args_).subspan(base));
    args_.resize(base);
    return t;
  }

  const Term* VarFor(std::string_view name) {
    if (name == "_") return store_.NewVar("_");
    for (const auto& [seen, var] : scope_) {
      if (seen == name) return var;
    }
    const Term* v = store_.NewVar(name);
    scope_.emplace_back(name, v);
    return v;
  }

  TermStore& store_;
  Lexer lexer_;
  Token tok_;
  Status error_;
  std::vector<const Term*> args_;
  std::vector<Literal> lits_;
  std::vector<std::pair<std::string_view, const Term*>> scope_;
  std::string unquoted_;
};

}  // namespace

Result<Program> ParseProgram(TermStore& store, std::string_view src) {
  GSLS_TRACE_SPAN("lang.parse", src.size());
  // Programs hold about one interned compound per 16 bytes of text.
  store.Reserve(src.size() / 16);
  return Parser(store, src).ParseProgramAll();
}

Result<Goal> ParseQuery(TermStore& store, std::string_view src) {
  return Parser(store, src).ParseQueryAll();
}

Result<const Term*> ParseTerm(TermStore& store, std::string_view src) {
  return Parser(store, src).ParseTermAll();
}

namespace {
[[noreturn]] void DieOnParse(const Status& status) {
  std::fprintf(stderr, "parse error: %s\n", status.ToString().c_str());
  std::abort();
}
}  // namespace

Program MustParseProgram(TermStore& store, std::string_view src) {
  Result<Program> r = ParseProgram(store, src);
  if (!r.ok()) DieOnParse(r.status());
  return std::move(r.value());
}

Goal MustParseQuery(TermStore& store, std::string_view src) {
  Result<Goal> r = ParseQuery(store, src);
  if (!r.ok()) DieOnParse(r.status());
  return std::move(r.value());
}

const Term* MustParseTerm(TermStore& store, std::string_view src) {
  Result<const Term*> r = ParseTerm(store, src);
  if (!r.ok()) DieOnParse(r.status());
  return r.value();
}

}  // namespace gsls
