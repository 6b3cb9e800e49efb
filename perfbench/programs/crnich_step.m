function u = crnich_step(u, uold, c, steps)
% CRNICH_STEP  The Crank-Nicholson time-averaging update of crnich.m
% (Table 1) reduced to its elementwise core: a convex average plus a
% damped correction term.
for k = 1:steps,
  unew = 0.5 .* (u + uold) + c .* (uold - u);
  uold = u;
  u = unew;
end
