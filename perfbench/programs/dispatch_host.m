function dispatch_host()
% DISPATCH_HOST  An empty function: calling it from the host through
% session.call_boxed costs exactly the repository's fixed per-call path
% (execute -> _guarded_invoke -> invoke) and nothing else.
