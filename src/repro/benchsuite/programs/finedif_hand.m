function U = finedif_hand(n, m, c)
% finedif with its innermost loop unrolled 2x and common subexpressions
% factored into temporaries by hand (the paper's Section 5 experiment:
% "almost 100% faster than the normal JIT-compiled finedif, and within
% 20% of the performance of the best (native compiler-generated) version").
h = 1 / (n - 1);
k = 1 / (m - 1);
r = c * k / h;
r2 = r * r;
r22 = r * r / 2;
s1 = 1 - r * r;
s2 = 2 - 2 * r * r;
U = zeros(n, m);
for i = 2:n-1,
  x = h * (i - 1);
  sx = sin(pi * x);
  U(i, 1) = sx;
  U(i, 2) = s1 * sx + r22 * (sin(pi * (x + h)) + sin(pi * (x - h)));
end
odd = mod(n - 2, 2);
last = n - 1 - odd;
for j = 3:m,
  jm1 = j - 1;
  jm2 = j - 2;
  for i = 2:2:last-1,
    um = U(i-1, jm1);
    u0 = U(i, jm1);
    up = U(i+1, jm1);
    upp = U(i+2, jm1);
    U(i, j) = s2 * u0 + r2 * (um + up) - U(i, jm2);
    U(i+1, j) = s2 * up + r2 * (u0 + upp) - U(i+1, jm2);
  end
  if odd > 0,
    U(n-1, j) = s2 * U(n-1, jm1) + r2 * (U(n-2, jm1) + U(n, jm1)) - U(n-1, jm2);
  end
end
