// The LP model container and status names. The solver behind lp::solve()
// lives in revised_simplex.cpp; lp.h has the overview.
#include <algorithm>
#include <stdexcept>

#include "lp/lp.h"

namespace skewopt::lp {

int Model::addVar(double lb, double ub, double obj) {
  if (lb > ub) throw std::invalid_argument("Model::addVar: lb > ub");
  obj_.push_back(obj);
  var_lb_.push_back(lb);
  var_ub_.push_back(ub);
  return static_cast<int>(obj_.size()) - 1;
}

void Model::addRow(double lo, double hi, std::vector<Term> terms) {
  if (lo > hi) throw std::invalid_argument("Model::addRow: lo > hi");
  for (const Term& t : terms)
    if (t.var < 0 || t.var >= numVars())
      throw std::out_of_range("Model::addRow: bad var index");
  // Coalesce duplicate-variable terms and drop exact zeros, so that the
  // column build sees each (row, var) entry once and nnz_ stays exact.
  std::sort(terms.begin(), terms.end(),
            [](const Term& a, const Term& b) { return a.var < b.var; });
  std::size_t out = 0;
  for (std::size_t i = 0; i < terms.size();) {
    double coef = terms[i].coef;
    std::size_t j = i + 1;
    while (j < terms.size() && terms[j].var == terms[i].var)
      coef += terms[j++].coef;
    if (coef != 0.0) terms[out++] = {terms[i].var, coef};
    i = j;
  }
  terms.resize(out);
  nnz_ += terms.size();
  row_lo_.push_back(lo);
  row_hi_.push_back(hi);
  rows_.push_back(std::move(terms));
}

void Model::setRowBounds(int r, double lo, double hi) {
  if (r < 0 || r >= numRows())
    throw std::out_of_range("Model::setRowBounds: bad row index");
  if (lo > hi) throw std::invalid_argument("Model::setRowBounds: lo > hi");
  row_lo_[static_cast<std::size_t>(r)] = lo;
  row_hi_[static_cast<std::size_t>(r)] = hi;
}

double Model::objective(const std::vector<double>& x) const {
  double o = 0.0;
  for (std::size_t j = 0; j < obj_.size(); ++j) o += obj_[j] * x[j];
  return o;
}

double Model::maxViolation(const std::vector<double>& x) const {
  double v = 0.0;
  for (std::size_t j = 0; j < obj_.size(); ++j) {
    if (var_lb_[j] > -kInf) v = std::max(v, var_lb_[j] - x[j]);
    if (var_ub_[j] < kInf) v = std::max(v, x[j] - var_ub_[j]);
  }
  for (int r = 0; r < numRows(); ++r) {
    double ax = 0.0;
    for (const Term& t : rows_[static_cast<std::size_t>(r)])
      ax += t.coef * x[static_cast<std::size_t>(t.var)];
    if (row_lo_[static_cast<std::size_t>(r)] > -kInf)
      v = std::max(v, row_lo_[static_cast<std::size_t>(r)] - ax);
    if (row_hi_[static_cast<std::size_t>(r)] < kInf)
      v = std::max(v, ax - row_hi_[static_cast<std::size_t>(r)]);
  }
  return v;
}

const char* statusName(Status s) {
  switch (s) {
    case Status::Optimal: return "optimal";
    case Status::Infeasible: return "infeasible";
    case Status::Unbounded: return "unbounded";
    case Status::IterLimit: return "iteration-limit";
  }
  return "?";
}

}  // namespace skewopt::lp
