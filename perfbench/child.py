"""One reslab operation in a fresh process, optionally traced.

    python3 perfbench/child.py [--spans FILE] OP [ARGS...]

OP is one of

    cli ARGS...        reslab.cli.main(ARGS), as ``python3 -m reslab.cli ARGS``
    import             import reslab, then report readiness
    setup CONFIG       build the inputs of the run CONFIG describes (params,
                       table, signs, support), then report readiness
    contour CONFIG Y   S(Y) by the contour integral against the direct sum
    autocorr SIGMA     sieve.autocorrelation_identity_check(SIGMA)

``import`` loads reslab and its CLI, as every operation does.
``import`` and ``setup`` print ``ready <time.monotonic()>`` once done, so the
parent can time set-up from its own spawn.  ``contour`` and ``autocorr``
print their results and exit 1 when the check they make fails.

With ``--spans FILE`` the public functions of the reslab modules (less the
hot scalars in HOT) and the methods in METHODS are wrapped from here, no
source file changes, and every call becomes an in-memory span
``[name, parent, start, end, cpu_start, cpu_end, failed, extra]``.  The
spans are written to FILE as JSON when the operation ends.  Times are
``time.perf_counter`` seconds; cpu is user plus system of this process and
its reaped children, so it covers pool workers once they have been joined.
"""

import sys
import time

# Other imports are made where they are needed, after reslab, so that the
# set-up probes time reslab and not this script.

LAYERS = ("arith", "resonator", "smoothing", "charsums", "analytic", "sieve", "cli")

# scalar helpers called per term or per quadrature node; their counts are
# derived from the inputs instead
HOT = {
    "arith.kronecker", "arith.chi8d", "arith.is_squarefree",
    "arith.check_2d_squarefree", "arith.factorize", "arith.divisor_count",
    "smoothing.phi", "smoothing.phi_prime", "smoothing.psi",
    "smoothing.psi_sigma", "smoothing.afe_weight_V",
    "resonator.r_minus", "resonator.r_plus", "resonator.r_prime",
    "resonator.r_tilde", "resonator.b_prime_factor", "resonator.b_weight",
    "resonator.r_full",
    "sieve.f_sigma",
    "analytic.trig_product",
}

METHODS = (
    ("charsums", "PartialSumKernel", "S"),
    ("resonator", "CoefficientTable", "with_signs"),
    ("resonator", "CoefficientTable", "with_support"),
)

# counts read off a span's return value
EXTRA = {
    "charsums.scan_family":
        lambda r: {"admissible": r.admissible, "chunks": r.chunk_count},
    "resonator.CoefficientTable.with_support":
        lambda r: {"support_size": len(r.support)},
}


class Recorder:
    """Spans of wrapped calls, kept in memory until the process ends."""

    def __init__(self):
        import resource
        self._getrusage = resource.getrusage
        self._self = resource.RUSAGE_SELF
        self._children = resource.RUSAGE_CHILDREN
        self.spans = []
        self._stack = []
        self._seen_errors = set()

    def _cpu(self):
        a = self._getrusage(self._self)
        b = self._getrusage(self._children)
        return a.ru_utime + a.ru_stime + b.ru_utime + b.ru_stime

    def wrap(self, name, fn):
        import functools
        rec = self
        extra = EXTRA.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = rec._stack[-1] if rec._stack else -1
            span = [name, parent, time.perf_counter(), 0.0, rec._cpu(), 0.0, 0, None]
            rec._stack.append(len(rec.spans))
            rec.spans.append(span)
            try:
                out = fn(*args, **kwargs)
                if extra is not None:
                    span[7] = extra(out)
                return out
            except BaseException as e:
                # count an exception once, in the innermost span it leaves
                if id(e) not in rec._seen_errors:
                    rec._seen_errors.add(id(e))
                    span[6] = 1
                raise
            finally:
                span[3] = time.perf_counter()
                span[5] = rec._cpu()
                rec._stack.pop()

        return traced

    def install(self, package):
        """Replace every public function of the layer modules, and of the
        package namespace that re-exports it, by its traced wrapper."""
        for layer in LAYERS:
            mod = getattr(package, layer)
            for attr, obj in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in HOT or isinstance(obj, type)
                        or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                wrapped = self.wrap(name, obj)
                setattr(mod, attr, wrapped)
                if getattr(package, attr, None) is obj:
                    setattr(package, attr, wrapped)
        for layer, cls, attr in METHODS:
            klass = getattr(getattr(package, layer), cls)
            setattr(klass, attr, self.wrap(f"{layer}.{cls}.{attr}", getattr(klass, attr)))


def inputs(config):
    """The coefficient table, with signs and support, of the run a config
    file describes; by public calls, as ``reslab ratio`` builds it."""
    from reslab import charsums, cli, resonator
    params = cli.RunConfig.load(config).to_params()
    table = resonator.build_table(params)
    kernel = charsums.PartialSumKernel(table)
    signs = resonator.assign_signs(table, kernel.S)
    return table.with_signs(signs).with_support()


def op_contour(config, y):
    """The contour suite's check at one y: the Mellin contour integral must
    match the direct lattice sum within its own error estimate."""
    from reslab import analytic, charsums
    table = inputs(config)
    y = float(y)
    cv = analytic.S_via_contour(y, table)
    direct = charsums.PartialSumKernel(table).S(y)
    gap = abs(cv.value - direct)
    ok = gap <= cv.err_estimate + 1e-6
    print(f"contour y = {y!r}: value = {cv.value!r}, err_estimate = "
          f"{cv.err_estimate!r}, direct = {direct!r}, gap = {gap!r}")
    print("PASS [contour]" if ok else "FAIL [contour]")
    return 0 if ok else 1


def op_autocorr(sigma):
    """H-hat = |f-hat|^2 and Parseval, at the bounds the test suite uses."""
    from reslab import sieve
    rep = sieve.autocorrelation_identity_check(float(sigma))
    ok = rep.max_gap < 1e-10 and rep.parseval_gap < 1e-12
    print(f"autocorrelation sigma = {float(sigma)!r}: max_gap = {rep.max_gap!r}, "
          f"parseval_gap = {rep.parseval_gap!r}, h_at_zero = {rep.h_at_zero!r}")
    print("PASS [autocorrelation]" if ok else "FAIL [autocorrelation]")
    return 0 if ok else 1


def run(op, args):
    if op == "cli":
        from reslab import cli
        return cli.main(args)
    if op == "import":
        print(f"ready {time.monotonic()!r}")
        return 0
    if op == "setup":
        inputs(args[0])
        print(f"ready {time.monotonic()!r}")
        return 0
    if op == "contour":
        return op_contour(*args)
    if op == "autocorr":
        return op_autocorr(*args)
    raise SystemExit(f"unknown operation {op!r}")


def main(argv):
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    op, args = argv[0], argv[1:]
    if spans_path is None:
        import reslab.cli  # noqa: F401  (what every operation imports)
        return run(op, args)

    t0 = time.perf_counter()
    import reslab.cli
    import_s = time.perf_counter() - t0
    rec = Recorder()
    rec.install(reslab)
    code = 1
    try:
        code = run(op, args)
    finally:
        import json
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "exit": code, "spans": rec.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
