"""The answer checks reject wrong answers."""

import workloads


def curve_answer(mus, lambdas=None):
    lambdas = lambdas or [-3.0 + 0.5 * i for i in range(len(mus))]
    rows = "\n".join(f"{lam!r},{mu!r},0.5" for lam, mu in zip(lambdas, mus))
    return {"rc": 0, "records": [], "tables": {"mu_curve": "lambda,mu,concentration\n" + rows + "\n"}}


def record_answer(command, **results):
    return {"rc": 0, "records": [{"command": command, "parameters": {}, "results": results}], "tables": {}}


def test_mu_curve_check():
    good = [0.29, 0.28, 0.27, 0.26, 0.25, 0.2, 0.0, -0.7, -1.8]  # lambda = -3 .. 1, zero at index 6
    check = workloads.check_mu_curve(full_sphere=True)
    assert check(curve_answer(good), "full") == []
    bumped = list(good)
    bumped[3] = bumped[2]
    assert "mu is not strictly decreasing in lambda" in check(curve_answer(bumped), "full")
    shifted = [m + 1e-6 for m in good]
    assert any("mu(0)" in e for e in check(curve_answer(shifted), "full"))


def test_lambda_star_check():
    check = workloads.check_lambda_star(0.05)
    ok = record_answer("lambda-star", lo=-0.39, hi=-0.35, constant_profile_bound=-0.3)
    assert check(ok, "full") == []
    wide = record_answer("lambda-star", lo=-0.45, hi=-0.35, constant_profile_bound=-0.3)
    above = record_answer("lambda-star", lo=-0.29, hi=-0.25, constant_profile_bound=-0.3)
    assert len(check(wide, "full")) == 1 and len(check(above, "full")) == 1


def test_theorem2_check():
    ok = record_answer("theorem2-check", verdict="CONFIRMS_THEOREM", margin=1.0, error_estimate=0.1)
    thin = record_answer("theorem2-check", verdict="CONFIRMS_THEOREM", margin=1.0, error_estimate=0.3)
    assert workloads.check_theorem2(ok, "full") == []
    assert workloads.check_theorem2(thin, "full") != []


def test_reference_comparison():
    ref = {"mu_upper": 2.0}
    assert workloads.check_reference("solve-flat-ball", record_answer("solve", mu_upper=2.0 - 1e-6), ref) == []
    looser = record_answer("solve", mu_upper=2.0 * (1 + 1e-7))
    assert workloads.check_reference("solve-flat-ball", looser, ref) != []
    bracket = record_answer("lambda-star", lo=-0.390625, hi=-0.3515625)
    assert workloads.check_reference("lambda-star-S3", bracket, {"lo": -0.390625, "hi": -0.3515625}) == []
    assert workloads.check_reference("lambda-star-S3", bracket, {"lo": -0.390625, "hi": -0.35}) != []
    curve = curve_answer([0.29, 0.28])
    assert workloads.check_reference("mu-curve-S3", curve, {"mu": [0.29, 0.28]}) == []
    assert workloads.check_reference("mu-curve-S3", curve, {"mu": [0.29, 0.28 + 1e-8]}) != []


def test_default_seed_reproduces_the_named_cases():
    argv = [" ".join(job.argv) for job in workloads.jobs("pencil-threshold", 0, 5)]
    assert argv[0].startswith("mu-curve --lambda-min -3.0 --lambda-max 1.0 --steps 9")
    assert argv[1] == "lambda-star --dim 3 --tol 0.05 --nodes 512"
    t2 = [" ".join(job.argv) for job in workloads.jobs("minimizer-theorem2", 0, 3)][:2]
    assert "--dim 4 --lambda -1.0 --sigma 1" in t2[0] and "--dim 5 --lambda -0.5 --sigma 0.5" in t2[1]


def test_other_seeds_vary_inputs_reproducibly():
    a = [job.argv for job in workloads.jobs("pencil-threshold", 3, 1)]
    assert a == [job.argv for job in workloads.jobs("pencil-threshold", 3, 1)]
    assert a != [job.argv for job in workloads.jobs("pencil-threshold", 4, 1)]
