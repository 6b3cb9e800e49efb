function s = orb_step(x, y, vx, vy, h, gm, steps)
% ORB_STEP  The two-body state update of orbec.m/orbrk.m (Table 1) over
% a vector of bodies: inverse-cube gravity followed by an Euler-Cromer
% step, all elementwise.
for k = 1:steps,
  r3 = (x .* x + y .* y) .^ 1.5;
  ax = 0.0 - gm .* x ./ r3;
  ay = 0.0 - gm .* y ./ r3;
  vx = vx + h .* ax;
  vy = vy + h .* ay;
  x = x + h .* vx;
  y = y + h .* vy;
end
s = x + y + vx + vy;
