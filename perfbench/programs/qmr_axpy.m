function s = qmr_axpy(x, p, v, alpha, beta, iters)
% QMR_AXPY  The coupled vector updates at the heart of QMR (Table 1,
% qmr.m): three AXPY-chain recurrences per iteration, each body line one
% maximal fusible elementwise tree.
r = x;
for k = 1:iters,
  x = x + alpha .* p - beta .* v;
  r = r - alpha .* v + beta .* p;
  p = r + beta .* p - alpha .* x;
end
s = x + r + p;
