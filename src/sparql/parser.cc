#include "sparql/parser.h"

#include <algorithm>
#include <unordered_map>

#include "sparql/lexer.h"
#include "store/update.h"
#include "util/string_util.h"

namespace sparqluo {

namespace {

constexpr const char* kRdfType = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";
constexpr const char* kXsdInteger = "http://www.w3.org/2001/XMLSchema#integer";
constexpr const char* kXsdDecimal = "http://www.w3.org/2001/XMLSchema#decimal";

class Parser {
 public:
  Parser(std::vector<Token> tokens, VarTable* vars)
      : tokens_(std::move(tokens)), vars_(vars) {}

  Result<Query> ParseQuery() {
    Query q;
    owned_vars_ = &q.vars;
    vars_ = &q.vars;
    SPARQLUO_RETURN_NOT_OK(ParsePrologue());
    if (CurIs(TokenType::kKeyword, "ASK")) {
      q.form = QueryForm::kAsk;
      Advance();
      if (CurIs(TokenType::kKeyword, "WHERE")) Advance();  // WHERE optional
    } else if (CurIs(TokenType::kKeyword, "CONSTRUCT")) {
      q.form = QueryForm::kConstruct;
      Advance();
      SPARQLUO_RETURN_NOT_OK(ParseTemplateBlock(&q.construct_template));
      if (q.construct_template.empty())
        return Err("CONSTRUCT template must contain at least one triple");
      q.construct_s = vars_->Intern(".cs");
      q.construct_p = vars_->Intern(".cp");
      q.construct_o = vars_->Intern(".co");
      SPARQLUO_RETURN_NOT_OK(Expect(TokenType::kKeyword, "WHERE"));
    } else {
      SPARQLUO_RETURN_NOT_OK(Expect(TokenType::kKeyword, "SELECT"));
      if (CurIs(TokenType::kKeyword, "DISTINCT")) {
        q.distinct = true;
        Advance();
      }
      if (CurIs(TokenType::kStar)) {
        Advance();
      } else {
        while (true) {
          if (Cur().type == TokenType::kVariable) {
            q.projection.push_back(vars_->Intern(Cur().text));
            Advance();
            continue;
          }
          if (CurIs(TokenType::kLParen)) {
            auto spec = ParseAggregateItem();
            if (!spec.ok()) return spec.status();
            q.projection.push_back(spec->output);
            q.aggregates.push_back(*spec);
            continue;
          }
          break;
        }
      }
      SPARQLUO_RETURN_NOT_OK(Expect(TokenType::kKeyword, "WHERE"));
    }
    auto ggp = ParseGroup();
    if (!ggp.ok()) return ggp.status();
    q.where = std::move(*ggp);
    SPARQLUO_RETURN_NOT_OK(ParseSolutionModifiers(&q));
    if (Cur().type != TokenType::kEof)
      return Err("trailing tokens after query body");
    SPARQLUO_RETURN_NOT_OK(ValidateAggregation(&q));
    return q;
  }

  /// `(AGG([DISTINCT] ?in|*) AS ?out)` — the aggregate SELECT item.
  Result<AggregateSpec> ParseAggregateItem() {
    SPARQLUO_RETURN_NOT_OK(Expect(TokenType::kLParen));
    AggregateSpec spec;
    if (CurIs(TokenType::kKeyword, "COUNT")) {
      spec.func = AggFunc::kCount;
    } else if (CurIs(TokenType::kKeyword, "SUM")) {
      spec.func = AggFunc::kSum;
    } else if (CurIs(TokenType::kKeyword, "MIN")) {
      spec.func = AggFunc::kMin;
    } else if (CurIs(TokenType::kKeyword, "MAX")) {
      spec.func = AggFunc::kMax;
    } else if (CurIs(TokenType::kKeyword, "AVG")) {
      spec.func = AggFunc::kAvg;
    } else {
      return Err("expected aggregate function (COUNT/SUM/MIN/MAX/AVG)");
    }
    Advance();
    SPARQLUO_RETURN_NOT_OK(Expect(TokenType::kLParen));
    if (CurIs(TokenType::kKeyword, "DISTINCT")) {
      spec.distinct = true;
      Advance();
    }
    if (CurIs(TokenType::kStar)) {
      if (spec.func != AggFunc::kCount)
        return Err("'*' is only allowed in COUNT(*)");
      if (spec.distinct) return Err("COUNT(DISTINCT *) is not supported");
      spec.count_star = true;
      Advance();
    } else if (Cur().type == TokenType::kVariable) {
      spec.input = vars_->Intern(Cur().text);
      Advance();
    } else {
      return Err("expected variable or '*' in aggregate");
    }
    SPARQLUO_RETURN_NOT_OK(Expect(TokenType::kRParen));
    SPARQLUO_RETURN_NOT_OK(Expect(TokenType::kKeyword, "AS"));
    if (Cur().type != TokenType::kVariable)
      return Err("expected output variable after AS");
    if (vars_->Lookup(Cur().text) != kInvalidVarId)
      return Err("AS variable ?" + Cur().text + " already in use");
    spec.output = vars_->Intern(Cur().text);
    Advance();
    SPARQLUO_RETURN_NOT_OK(Expect(TokenType::kRParen));
    return spec;
  }

  /// Grouped-query well-formedness (SPARQL 1.1 section 11): every plain
  /// projected variable comes from GROUP BY, aggregate outputs are fresh,
  /// and ORDER BY only touches the grouped output schema.
  Status ValidateAggregation(Query* q) {
    bool aggregated = !q->group_by.empty() || !q->aggregates.empty();
    if (!aggregated) return Status::OK();
    if (q->form != QueryForm::kSelect)
      return Status::ParseError("aggregates require a SELECT query");
    if (q->projection.empty())
      return Status::ParseError(
          "SELECT * cannot be combined with GROUP BY or aggregates");
    std::vector<VarId> where_vars;
    CollectVariables(q->where, &where_vars);
    auto contains = [](const std::vector<VarId>& v, VarId x) {
      return std::find(v.begin(), v.end(), x) != v.end();
    };
    for (const AggregateSpec& a : q->aggregates) {
      if (contains(where_vars, a.output))
        return Status::ParseError("aggregate output ?" +
                                  q->vars.Name(a.output) +
                                  " is already bound in WHERE");
      if (contains(q->group_by, a.output))
        return Status::ParseError("aggregate output ?" +
                                  q->vars.Name(a.output) +
                                  " cannot also be a GROUP BY key");
    }
    for (VarId v : q->projection) {
      bool is_output = false;
      for (const AggregateSpec& a : q->aggregates)
        if (a.output == v) is_output = true;
      if (!is_output && !contains(q->group_by, v))
        return Status::ParseError("projected variable ?" + q->vars.Name(v) +
                                  " must appear in GROUP BY or an aggregate");
    }
    for (const OrderKey& k : q->order_by) {
      bool ok = contains(q->group_by, k.var);
      for (const AggregateSpec& a : q->aggregates)
        if (a.output == k.var) ok = true;
      if (!ok)
        return Status::ParseError("ORDER BY variable ?" + q->vars.Name(k.var) +
                                  " is not in GROUP BY or aggregate outputs");
    }
    return Status::OK();
  }

  /// ORDER BY (ASC(?v)|DESC(?v)|?v)+, LIMIT n, OFFSET n — in any of the
  /// standard orders (ORDER BY before LIMIT/OFFSET; LIMIT/OFFSET commute).
  Status ParseSolutionModifiers(Query* q) {
    if (CurIs(TokenType::kKeyword, "GROUP")) {
      Advance();
      SPARQLUO_RETURN_NOT_OK(Expect(TokenType::kKeyword, "BY"));
      while (Cur().type == TokenType::kVariable) {
        VarId v = vars_->Intern(Cur().text);
        if (std::find(q->group_by.begin(), q->group_by.end(), v) !=
            q->group_by.end())
          return Err("duplicate GROUP BY variable ?" + Cur().text);
        q->group_by.push_back(v);
        Advance();
      }
      if (q->group_by.empty())
        return Err("GROUP BY requires at least one variable");
    }
    if (CurIs(TokenType::kKeyword, "ORDER")) {
      Advance();
      SPARQLUO_RETURN_NOT_OK(Expect(TokenType::kKeyword, "BY"));
      bool any = false;
      while (true) {
        OrderKey key;
        if (CurIs(TokenType::kKeyword, "ASC") ||
            CurIs(TokenType::kKeyword, "DESC")) {
          key.ascending = Cur().text == "ASC";
          Advance();
          SPARQLUO_RETURN_NOT_OK(Expect(TokenType::kLParen));
          if (Cur().type != TokenType::kVariable)
            return Err("expected variable in ORDER BY");
          key.var = vars_->Intern(Cur().text);
          Advance();
          SPARQLUO_RETURN_NOT_OK(Expect(TokenType::kRParen));
        } else if (Cur().type == TokenType::kVariable) {
          key.var = vars_->Intern(Cur().text);
          Advance();
        } else {
          break;
        }
        q->order_by.push_back(key);
        any = true;
      }
      if (!any) return Err("ORDER BY requires at least one key");
    }
    while (CurIs(TokenType::kKeyword, "LIMIT") ||
           CurIs(TokenType::kKeyword, "OFFSET")) {
      bool is_limit = Cur().text == "LIMIT";
      Advance();
      if (Cur().type != TokenType::kNumber)
        return Err("expected integer after LIMIT/OFFSET");
      long value = std::atol(Cur().text.c_str());
      if (value < 0) return Err("LIMIT/OFFSET must be non-negative");
      if (is_limit) {
        q->limit = static_cast<size_t>(value);
      } else {
        q->offset = static_cast<size_t>(value);
      }
      Advance();
    }
    return Status::OK();
  }

  Result<GroupGraphPattern> ParseGroupOnly() {
    auto g = ParseGroup();
    if (!g.ok()) return g.status();
    if (Cur().type != TokenType::kEof) return Err("trailing tokens");
    return g;
  }

  /// Full update script: `;`-separated DATA and pattern operations. Each
  /// command gets its own variable table (commands commit independently).
  Result<std::vector<UpdateCommand>> ParseUpdateScript() {
    std::vector<UpdateCommand> cmds;
    SPARQLUO_RETURN_NOT_OK(ParsePrologue());
    bool any = false;
    while (true) {
      if (CurIs(TokenType::kEof)) {
        if (!any) return Err("expected INSERT or DELETE");
        break;
      }
      UpdateCommand cmd;
      vars_ = &cmd.vars;
      if (CurIs(TokenType::kKeyword, "INSERT")) {
        Advance();
        if (CurIs(TokenType::kKeyword, "DATA")) {
          Advance();
          SPARQLUO_RETURN_NOT_OK(
              ParseGroundBlock(UpdateOp::Kind::kInsert, &cmd.data));
        } else {
          cmd.is_pattern = true;
          SPARQLUO_RETURN_NOT_OK(
              ParseTemplateBlock(&cmd.pattern.insert_templates));
          SPARQLUO_RETURN_NOT_OK(Expect(TokenType::kKeyword, "WHERE"));
          auto g = ParseGroup();
          if (!g.ok()) return g.status();
          cmd.pattern.where = std::move(*g);
        }
      } else if (CurIs(TokenType::kKeyword, "DELETE")) {
        Advance();
        if (CurIs(TokenType::kKeyword, "DATA")) {
          Advance();
          SPARQLUO_RETURN_NOT_OK(
              ParseGroundBlock(UpdateOp::Kind::kDelete, &cmd.data));
        } else if (CurIs(TokenType::kKeyword, "WHERE")) {
          // DELETE WHERE { t }: the template doubles as the pattern.
          cmd.is_pattern = true;
          Advance();
          SPARQLUO_RETURN_NOT_OK(
              ParseTemplateBlock(&cmd.pattern.delete_templates));
          for (const TriplePattern& t : cmd.pattern.delete_templates) {
            PatternElement e;
            e.kind = PatternElement::Kind::kTriple;
            e.triple = t;
            cmd.pattern.where.elements.push_back(std::move(e));
          }
        } else {
          cmd.is_pattern = true;
          SPARQLUO_RETURN_NOT_OK(
              ParseTemplateBlock(&cmd.pattern.delete_templates));
          if (CurIs(TokenType::kKeyword, "INSERT")) {
            Advance();
            SPARQLUO_RETURN_NOT_OK(
                ParseTemplateBlock(&cmd.pattern.insert_templates));
          }
          SPARQLUO_RETURN_NOT_OK(Expect(TokenType::kKeyword, "WHERE"));
          auto g = ParseGroup();
          if (!g.ok()) return g.status();
          cmd.pattern.where = std::move(*g);
        }
      } else {
        return Err("expected INSERT or DELETE");
      }
      cmds.push_back(std::move(cmd));
      any = true;
      if (CurIs(TokenType::kSemicolon)) {
        Advance();
        continue;
      }
      break;
    }
    if (Cur().type != TokenType::kEof)
      return Err("trailing tokens after update");
    return cmds;
  }

 private:
  const Token& Cur() const { return tokens_[pos_]; }
  const Token& Peek(size_t n = 1) const {
    size_t i = pos_ + n;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  void Advance() {
    if (pos_ + 1 < tokens_.size()) ++pos_;
  }
  bool CurIs(TokenType t) const { return Cur().type == t; }
  bool CurIs(TokenType t, std::string_view text) const {
    return Cur().type == t && Cur().text == text;
  }
  Status Err(const std::string& msg) const {
    return Status::ParseError(msg + " (line " + std::to_string(Cur().line) +
                              ", near '" + Cur().text + "')");
  }
  Status Expect(TokenType t, std::string_view text = {}) {
    if (Cur().type != t || (!text.empty() && Cur().text != text))
      return Err("expected " + std::string(text.empty() ? TokenTypeName(t)
                                                        : std::string(text)));
    Advance();
    return Status::OK();
  }

  Status ParsePrologue() {
    while (CurIs(TokenType::kKeyword, "PREFIX")) {
      Advance();
      if (Cur().type != TokenType::kPrefixedName)
        return Err("expected prefix name after PREFIX");
      std::string pname = Cur().text;
      if (pname.empty() || pname.back() != ':')
        return Err("prefix declaration must end with ':'");
      Advance();
      if (Cur().type != TokenType::kIriRef)
        return Err("expected IRI after prefix name");
      prefixes_[pname.substr(0, pname.size() - 1)] = Cur().text;
      Advance();
    }
    return Status::OK();
  }

  Result<Term> ExpandPrefixedName(const std::string& qname) {
    size_t colon = qname.find(':');
    std::string prefix = qname.substr(0, colon);
    std::string local = qname.substr(colon + 1);
    if (prefix == "_") return Term::Blank(local);
    auto it = prefixes_.find(prefix);
    if (it == prefixes_.end())
      return Status::ParseError("undeclared prefix '" + prefix + ":'");
    return Term::Iri(it->second + local);
  }

  /// Fresh hidden variable for path desugaring. '.' cannot occur in surface
  /// variable names, so hidden names never collide with user variables;
  /// the executor strips them from SELECT * results.
  std::string HiddenVarName() {
    return ".p" + std::to_string(hidden_counter_++);
  }

  /// Parses one subject/predicate/object slot.
  Result<PatternSlot> ParseSlot(bool predicate_position) {
    switch (Cur().type) {
      case TokenType::kVariable: {
        PatternSlot s = PatternSlot::Var(vars_->Intern(Cur().text));
        Advance();
        return s;
      }
      case TokenType::kIriRef: {
        PatternSlot s = PatternSlot::Const(Term::Iri(Cur().text));
        Advance();
        return s;
      }
      case TokenType::kPrefixedName: {
        auto t = ExpandPrefixedName(Cur().text);
        if (!t.ok()) return t.status();
        Advance();
        return PatternSlot::Const(std::move(*t));
      }
      case TokenType::kA:
        if (!predicate_position) return Err("'a' only allowed as predicate");
        Advance();
        return PatternSlot::Const(Term::Iri(kRdfType));
      case TokenType::kString: {
        std::string value = Cur().text;
        Advance();
        if (Cur().type == TokenType::kLangTag) {
          std::string lang = Cur().text;
          Advance();
          return PatternSlot::Const(Term::LangLiteral(value, lang));
        }
        if (Cur().type == TokenType::kDoubleCaret) {
          Advance();
          if (Cur().type == TokenType::kIriRef) {
            std::string dt = Cur().text;
            Advance();
            return PatternSlot::Const(Term::TypedLiteral(value, dt));
          }
          if (Cur().type == TokenType::kPrefixedName) {
            auto t = ExpandPrefixedName(Cur().text);
            if (!t.ok()) return t.status();
            Advance();
            return PatternSlot::Const(Term::TypedLiteral(value, t->lexical));
          }
          return Err("expected datatype IRI after ^^");
        }
        return PatternSlot::Const(Term::Literal(value));
      }
      case TokenType::kNumber: {
        std::string text = Cur().text;
        Advance();
        const char* dt = text.find('.') == std::string::npos ? kXsdInteger
                                                             : kXsdDecimal;
        return PatternSlot::Const(Term::TypedLiteral(text, dt));
      }
      default:
        return Err("expected term or variable");
    }
  }

  /// TriplesBlock starting at the current subject token. Appends kTriple
  /// elements (expanding ';' and ',' lists). Verbs that start with an IRI,
  /// 'a' or '(' parse as property paths; a path that is a single link
  /// degrades to the plain triple the old grammar produced.
  Status ParseTriplesBlock(GroupGraphPattern* out) {
    auto subject = ParseSlot(/*predicate_position=*/false);
    if (!subject.ok()) return subject.status();
    while (true) {
      bool path_verb = CurIs(TokenType::kIriRef) ||
                       CurIs(TokenType::kPrefixedName) ||
                       CurIs(TokenType::kA) || CurIs(TokenType::kLParen);
      if (path_verb) {
        auto path = ParsePath();
        if (!path.ok()) return path.status();
        while (true) {
          auto obj = ParseSlot(/*predicate_position=*/false);
          if (!obj.ok()) return obj.status();
          SPARQLUO_RETURN_NOT_OK(AppendPathElement(*subject, *path, *obj, out));
          if (CurIs(TokenType::kComma)) {
            Advance();
            continue;
          }
          break;
        }
      } else {
        auto pred = ParseSlot(/*predicate_position=*/true);
        if (!pred.ok()) return pred.status();
        while (true) {
          auto obj = ParseSlot(/*predicate_position=*/false);
          if (!obj.ok()) return obj.status();
          PatternElement e;
          e.kind = PatternElement::Kind::kTriple;
          e.triple = TriplePattern{*subject, *pred, *obj};
          out->elements.push_back(std::move(e));
          if (CurIs(TokenType::kComma)) {
            Advance();
            continue;
          }
          break;
        }
      }
      if (CurIs(TokenType::kSemicolon)) {
        Advance();
        continue;
      }
      break;
    }
    if (CurIs(TokenType::kDot)) Advance();
    return Status::OK();
  }

  // ---- Property paths -------------------------------------------------

  Result<PathExpr> ParsePath() {
    auto first = ParsePathSeq();
    if (!first.ok()) return first;
    if (!CurIs(TokenType::kPipe)) return first;
    PathExpr alt;
    alt.kind = PathExpr::Kind::kAlt;
    alt.children.push_back(std::move(*first));
    while (CurIs(TokenType::kPipe)) {
      Advance();
      auto next = ParsePathSeq();
      if (!next.ok()) return next;
      alt.children.push_back(std::move(*next));
    }
    return alt;
  }

  Result<PathExpr> ParsePathSeq() {
    auto first = ParsePathElt();
    if (!first.ok()) return first;
    if (!CurIs(TokenType::kSlash)) return first;
    PathExpr seq;
    seq.kind = PathExpr::Kind::kSeq;
    seq.children.push_back(std::move(*first));
    while (CurIs(TokenType::kSlash)) {
      Advance();
      auto next = ParsePathElt();
      if (!next.ok()) return next;
      seq.children.push_back(std::move(*next));
    }
    return seq;
  }

  Result<PathExpr> ParsePathElt() {
    auto prim = ParsePathPrimary();
    if (!prim.ok()) return prim;
    if (CurIs(TokenType::kStar) || CurIs(TokenType::kPlus)) {
      PathExpr closure;
      closure.kind = CurIs(TokenType::kStar) ? PathExpr::Kind::kStar
                                             : PathExpr::Kind::kPlus;
      Advance();
      closure.children.push_back(std::move(*prim));
      return closure;
    }
    return prim;
  }

  Result<PathExpr> ParsePathPrimary() {
    if (CurIs(TokenType::kLParen)) {
      Advance();
      auto inner = ParsePath();
      if (!inner.ok()) return inner;
      SPARQLUO_RETURN_NOT_OK(Expect(TokenType::kRParen));
      return inner;
    }
    PathExpr link;
    link.kind = PathExpr::Kind::kLink;
    if (CurIs(TokenType::kIriRef)) {
      link.iri = Term::Iri(Cur().text);
      Advance();
      return link;
    }
    if (CurIs(TokenType::kPrefixedName)) {
      auto t = ExpandPrefixedName(Cur().text);
      if (!t.ok()) return t.status();
      if (t->kind != TermKind::kIri) return Err("path step must be an IRI");
      link.iri = std::move(*t);
      Advance();
      return link;
    }
    if (CurIs(TokenType::kA)) {
      link.iri = Term::Iri(kRdfType);
      Advance();
      return link;
    }
    return Err("expected IRI or '(' in property path");
  }

  /// Desugars `subject path object` into group elements: links become
  /// plain triples, sequences chain through hidden variables, alternatives
  /// become UNION, and `*`/`+` closures stay as kPath algebra leaves.
  Status AppendPathElement(const PatternSlot& subject, const PathExpr& path,
                           const PatternSlot& object, GroupGraphPattern* out) {
    switch (path.kind) {
      case PathExpr::Kind::kLink: {
        PatternElement e;
        e.kind = PatternElement::Kind::kTriple;
        e.triple = TriplePattern{subject, PatternSlot::Const(path.iri), object};
        out->elements.push_back(std::move(e));
        return Status::OK();
      }
      case PathExpr::Kind::kSeq: {
        PatternSlot cur = subject;
        for (size_t i = 0; i < path.children.size(); ++i) {
          PatternSlot next =
              i + 1 == path.children.size()
                  ? object
                  : PatternSlot::Var(vars_->Intern(HiddenVarName()));
          SPARQLUO_RETURN_NOT_OK(
              AppendPathElement(cur, path.children[i], next, out));
          cur = next;
        }
        return Status::OK();
      }
      case PathExpr::Kind::kAlt: {
        PatternElement e;
        e.kind = PatternElement::Kind::kUnion;
        for (const PathExpr& branch : path.children) {
          GroupGraphPattern g;
          SPARQLUO_RETURN_NOT_OK(
              AppendPathElement(subject, branch, object, &g));
          e.groups.push_back(std::move(g));
        }
        out->elements.push_back(std::move(e));
        return Status::OK();
      }
      case PathExpr::Kind::kStar:
      case PathExpr::Kind::kPlus: {
        PatternElement e;
        e.kind = PatternElement::Kind::kPath;
        e.path = PathPattern{subject, path, object};
        out->elements.push_back(std::move(e));
        return Status::OK();
      }
    }
    return Status::ParseError("unknown path kind");
  }

  // ---- Templates (CONSTRUCT and pattern updates) ----------------------

  /// One subject's predicate-object list appended as flat TriplePatterns.
  Status ParseTriplesTemplate(std::vector<TriplePattern>* out) {
    auto subject = ParseSlot(/*predicate_position=*/false);
    if (!subject.ok()) return subject.status();
    while (true) {
      auto pred = ParseSlot(/*predicate_position=*/true);
      if (!pred.ok()) return pred.status();
      while (true) {
        auto obj = ParseSlot(/*predicate_position=*/false);
        if (!obj.ok()) return obj.status();
        out->push_back(TriplePattern{*subject, *pred, *obj});
        if (CurIs(TokenType::kComma)) {
          Advance();
          continue;
        }
        break;
      }
      if (CurIs(TokenType::kSemicolon)) {
        Advance();
        continue;
      }
      break;
    }
    if (CurIs(TokenType::kDot)) Advance();
    return Status::OK();
  }

  /// `'{' TriplesTemplate* '}'`.
  Status ParseTemplateBlock(std::vector<TriplePattern>* out) {
    SPARQLUO_RETURN_NOT_OK(Expect(TokenType::kLBrace));
    while (!CurIs(TokenType::kRBrace)) {
      if (CurIs(TokenType::kEof)) return Err("unterminated template block");
      SPARQLUO_RETURN_NOT_OK(ParseTriplesTemplate(out));
    }
    Advance();  // consume '}'
    return Status::OK();
  }

  /// A DATA block: templates restricted to ground terms.
  Status ParseGroundBlock(UpdateOp::Kind kind, UpdateBatch* out) {
    std::vector<TriplePattern> triples;
    SPARQLUO_RETURN_NOT_OK(ParseTemplateBlock(&triples));
    for (const TriplePattern& t : triples) {
      for (const PatternSlot* s : {&t.s, &t.p, &t.o}) {
        if (s->is_var)
          return Err("data blocks must be ground: variable ?" +
                     vars_->Name(s->var) +
                     " not allowed in INSERT DATA / DELETE DATA");
      }
      out->ops.push_back({kind, {t.s.term, t.p.term, t.o.term}});
    }
    return Status::OK();
  }

  Result<GroupGraphPattern> ParseGroup() {
    SPARQLUO_RETURN_NOT_OK(Expect(TokenType::kLBrace));
    GroupGraphPattern g;
    while (!CurIs(TokenType::kRBrace)) {
      if (CurIs(TokenType::kEof)) return Err("unterminated group pattern");
      if (CurIs(TokenType::kLBrace)) {
        // GroupOrUnionGraphPattern.
        std::vector<GroupGraphPattern> branches;
        auto first = ParseGroup();
        if (!first.ok()) return first.status();
        branches.push_back(std::move(*first));
        while (CurIs(TokenType::kKeyword, "UNION")) {
          Advance();
          auto next = ParseGroup();
          if (!next.ok()) return next.status();
          branches.push_back(std::move(*next));
        }
        PatternElement e;
        e.kind = branches.size() == 1 ? PatternElement::Kind::kGroup
                                      : PatternElement::Kind::kUnion;
        e.groups = std::move(branches);
        g.elements.push_back(std::move(e));
        if (CurIs(TokenType::kDot)) Advance();
        continue;
      }
      if (CurIs(TokenType::kKeyword, "OPTIONAL")) {
        Advance();
        auto inner = ParseGroup();
        if (!inner.ok()) return inner.status();
        PatternElement e;
        e.kind = PatternElement::Kind::kOptional;
        e.groups.push_back(std::move(*inner));
        g.elements.push_back(std::move(e));
        if (CurIs(TokenType::kDot)) Advance();
        continue;
      }
      if (CurIs(TokenType::kKeyword, "FILTER")) {
        Advance();
        SPARQLUO_RETURN_NOT_OK(Expect(TokenType::kLParen));
        auto f = ParseOrExpr();
        if (!f.ok()) return f.status();
        SPARQLUO_RETURN_NOT_OK(Expect(TokenType::kRParen));
        PatternElement e;
        e.kind = PatternElement::Kind::kFilter;
        e.filter = std::move(*f);
        g.elements.push_back(std::move(e));
        if (CurIs(TokenType::kDot)) Advance();
        continue;
      }
      SPARQLUO_RETURN_NOT_OK(ParseTriplesBlock(&g));
    }
    Advance();  // consume '}'
    // A FILTER constrains its whole group wherever it is written (SPARQL
    // 1.1 §18.2.2), so the filters go last, in their written order.
    std::stable_partition(g.elements.begin(), g.elements.end(),
                          [](const PatternElement& e) {
                            return e.kind != PatternElement::Kind::kFilter;
                          });
    return g;
  }

  Result<FilterExpr> ParseOrExpr() {
    auto lhs = ParseAndExpr();
    if (!lhs.ok()) return lhs;
    while (CurIs(TokenType::kOrOr)) {
      Advance();
      auto rhs = ParseAndExpr();
      if (!rhs.ok()) return rhs;
      FilterExpr e;
      e.op = FilterExpr::Op::kOr;
      e.children.push_back(std::move(*lhs));
      e.children.push_back(std::move(*rhs));
      lhs = std::move(e);
    }
    return lhs;
  }

  Result<FilterExpr> ParseAndExpr() {
    auto lhs = ParseUnaryExpr();
    if (!lhs.ok()) return lhs;
    while (CurIs(TokenType::kAndAnd)) {
      Advance();
      auto rhs = ParseUnaryExpr();
      if (!rhs.ok()) return rhs;
      FilterExpr e;
      e.op = FilterExpr::Op::kAnd;
      e.children.push_back(std::move(*lhs));
      e.children.push_back(std::move(*rhs));
      lhs = std::move(e);
    }
    return lhs;
  }

  Result<FilterExpr> ParseUnaryExpr() {
    if (CurIs(TokenType::kBang)) {
      Advance();
      auto inner = ParseUnaryExpr();
      if (!inner.ok()) return inner;
      FilterExpr e;
      e.op = FilterExpr::Op::kNot;
      e.children.push_back(std::move(*inner));
      return e;
    }
    if (CurIs(TokenType::kLParen)) {
      Advance();
      auto inner = ParseOrExpr();
      if (!inner.ok()) return inner;
      SPARQLUO_RETURN_NOT_OK(Expect(TokenType::kRParen));
      return inner;
    }
    if (CurIs(TokenType::kKeyword, "BOUND")) {
      Advance();
      SPARQLUO_RETURN_NOT_OK(Expect(TokenType::kLParen));
      auto slot = ParseSlot(false);
      if (!slot.ok()) return slot.status();
      SPARQLUO_RETURN_NOT_OK(Expect(TokenType::kRParen));
      FilterExpr e;
      e.op = FilterExpr::Op::kBound;
      e.lhs = std::move(*slot);
      return e;
    }
    // Comparison: slot op slot.
    auto lhs = ParseSlot(false);
    if (!lhs.ok()) return lhs.status();
    FilterExpr e;
    switch (Cur().type) {
      case TokenType::kEq: e.op = FilterExpr::Op::kEq; break;
      case TokenType::kNeq: e.op = FilterExpr::Op::kNeq; break;
      case TokenType::kLt: e.op = FilterExpr::Op::kLt; break;
      case TokenType::kGt: e.op = FilterExpr::Op::kGt; break;
      case TokenType::kLe: e.op = FilterExpr::Op::kLe; break;
      case TokenType::kGe: e.op = FilterExpr::Op::kGe; break;
      default:
        return Err("expected comparison operator in FILTER");
    }
    Advance();
    auto rhs = ParseSlot(false);
    if (!rhs.ok()) return rhs.status();
    e.lhs = std::move(*lhs);
    e.rhs = std::move(*rhs);
    return e;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  VarTable* vars_;
  VarTable* owned_vars_ = nullptr;
  std::unordered_map<std::string, std::string> prefixes_;
  size_t hidden_counter_ = 0;
};

}  // namespace

Result<Query> ParseQuery(std::string_view text) {
  auto tokens = Tokenize(text);
  if (!tokens.ok()) return tokens.status();
  Parser p(std::move(*tokens), nullptr);
  return p.ParseQuery();
}

Result<GroupGraphPattern> ParseGroupGraphPattern(std::string_view text,
                                                 VarTable* vars) {
  auto tokens = Tokenize(text);
  if (!tokens.ok()) return tokens.status();
  Parser p(std::move(*tokens), vars);
  return p.ParseGroupOnly();
}

Result<std::vector<UpdateCommand>> ParseUpdateScript(std::string_view text) {
  auto tokens = Tokenize(text);
  if (!tokens.ok()) return tokens.status();
  Parser p(std::move(*tokens), nullptr);
  return p.ParseUpdateScript();
}

}  // namespace sparqluo
