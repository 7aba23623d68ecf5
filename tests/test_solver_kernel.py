"""The Newton kernel on its per-run workspace against recorded digests.

`KERNEL_DIGESTS` holds the sha256 of three steps' fields, infos and any
failure for every run of the exponent lattice below, and of the first step of
two runs that fail.  The lattice digests were recorded from the kernel as it
was before `_Discretization` became a workspace: every temporary freshly
allocated, the ghost array built by `np.concatenate`.  The kernel must give
the same bits on the exponent map that `classify` describes.  The failure
digests were recorded again when the Picard fallback was removed, because the
two runs recorded before now converge."""

import hashlib
import itertools
import types
import warnings

import numpy as np
import pytest

from dnl_lab import cli, solver
from dnl_lab.core import ExponentTriple, Grid1D
from dnl_lab.exact import TrudingerGaussian
from dnl_lab.solver import (
    CauchyDirichletProblem,
    SolverConfig,
    StepFailure,
    Trajectory,
    _Discretization,
    solve,
    step,
)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def _lattice_problem(p, q, n_dim, geometry, n_cells=32):
    """`solver-supercritical-run` on a coarser grid: cos_bump data on [0, 1],
    zero Dirichlet data, dt = 2e-4."""
    g = Grid1D(0.0, 1.0, n_cells, geometry, n_dim)
    u0 = np.cos(np.pi * g.centers() / 2) ** 2
    return CauchyDirichletProblem(ExponentTriple(p, q, n_dim), g, u0, 1.0)


def _steps(problem, config, count):
    """(fields, infos, failure time and residual or None) of `count` steps
    with a fresh workspace each."""
    u, t = problem.initial, problem.t_start
    fields, infos = [], []
    for _ in range(count):
        try:
            u, info = step(problem, u, t, config.dt, config)
        except StepFailure as exc:
            return fields, infos, (exc.time, exc.residual)
        t += config.dt
        fields.append(u)
        infos.append(info)
    return fields, infos, None


# (p, q, N, geometry) or (p, q, geometry, "fail") and the digest; a
# cartesian run ignores N
_DIGEST_TABLE = """\
1.3 0.3 1 radial fd6d7854da5bdd6de8e67f848576cd9a6a8dab3408ed6ab7648e8e1310c31e6a
1.3 0.3 1 cartesian 31a0d7b40e104064d71ff6da970ce55ecc3434f42591e511ce8cd186ed1c107d
1.3 0.3 3 radial f2f18834524ce6ac55096d66127e165232bef5b803710b9aeb47e8863c03e73f
1.3 0.3 3 cartesian 31a0d7b40e104064d71ff6da970ce55ecc3434f42591e511ce8cd186ed1c107d
1.3 0.6 1 radial 8f7b24a9ec2c0363c735933cd475775589737dd42c2d27045c3390556e66bb87
1.3 0.6 1 cartesian 577de3ed8cfdb341ace1184ff0083cdd230a092c63c47606f806587c76a63e79
1.3 0.6 3 radial 4b12ca9dfbf1fd23204c92b4d09db8329ab72d6f611b5382a44cc79cdeac7a4e
1.3 0.6 3 cartesian 577de3ed8cfdb341ace1184ff0083cdd230a092c63c47606f806587c76a63e79
1.3 1.0 1 radial e46fe8308ef97a94590979d89a719390a2f56cb60c2601cb87bce10e3db711b2
1.3 1.0 1 cartesian 3bfc58a7d3678141c371a6785bb473b8d7346bec2e751e18124105bd3bba6702
1.3 1.0 3 radial 81669c8db779c60cb9468a384eb248ad499eb5689fb5f85dadb1b0cf3b418465
1.3 1.0 3 cartesian 3bfc58a7d3678141c371a6785bb473b8d7346bec2e751e18124105bd3bba6702
1.3 2.0 1 radial e80e41169f0aefee04512176fa1f8b3860a625e69ccaf459672bd7079a95fc47
1.3 2.0 1 cartesian 40e2178ffbe76d70bd4cca0ee0c3f5eca7c65c8b6f9b2ab20e748160c189aee1
1.3 2.0 3 radial ebdf2e1e735458237a3cc793b59c29af8d11cd72d641b8e56757992e736762dd
1.3 2.0 3 cartesian 40e2178ffbe76d70bd4cca0ee0c3f5eca7c65c8b6f9b2ab20e748160c189aee1
1.3 4.0 1 radial 2140b5911c1cb7afe738de0d1dfb31a3537034f646fb3fadd4d79c57c0497fc7
1.3 4.0 1 cartesian b14f4fcedcc980ddc9939f2836a124fe1fcc771cbdb7217807a22fc44f39c4a8
1.3 4.0 3 radial 2aac3ba4945f7459af482088cf012edceb1ff0a09c96234c68ec00172ed442da
1.3 4.0 3 cartesian b14f4fcedcc980ddc9939f2836a124fe1fcc771cbdb7217807a22fc44f39c4a8
1.6 0.3 1 radial 5bab429db7a3d57f814442be6a4d0290990e4901c2bf609d338072d0d62fde95
1.6 0.3 1 cartesian 72206a6cdb30667e4eb8b388cd102979b8028b95f8ecebe9253c700fd57447fc
1.6 0.3 3 radial e85de5591ccb1dce49c04fadac539ed59239ef6e545e67a2aa579d6208351f7c
1.6 0.3 3 cartesian 72206a6cdb30667e4eb8b388cd102979b8028b95f8ecebe9253c700fd57447fc
1.6 0.6 1 radial 83f1e444c4190673fa540349300977ce69cea9a235c11ec8f224f7b607d5b804
1.6 0.6 1 cartesian e9dfaa73960afa33f7cfb99e31299ed45fcdd84a4551dc69623b628914b8312d
1.6 0.6 3 radial 27bfec1ad42ff321298cf1c8b3ed55f8a00285eb6fdb7c5e0eaad6f7c7b48794
1.6 0.6 3 cartesian e9dfaa73960afa33f7cfb99e31299ed45fcdd84a4551dc69623b628914b8312d
1.6 1.0 1 radial 0475a69404fdefe55b215baabc9609aa03d360341f0b92858f065a737f377817
1.6 1.0 1 cartesian 6cab197e79bc951078fe105f0e8187a771939a9261fc3311d9636291bdba40fc
1.6 1.0 3 radial 5bbed19d7eb993bf3f4f1fba0cb66d657e50d02067f7dfb3260b06e92b4e906b
1.6 1.0 3 cartesian 6cab197e79bc951078fe105f0e8187a771939a9261fc3311d9636291bdba40fc
1.6 2.0 1 radial 562ccdbf8dbb67c0a8b40b0e6fa08ff3dcf09803bd65ae55f7e4234971a9b3d6
1.6 2.0 1 cartesian e040f01177ee70e2f9a47d49586bd9f72f3a7c68891255b55b22fb918a03d9c2
1.6 2.0 3 radial b21ad9593a6427a87758226a7f762e036e5e4b5f5f4a06c0599e5cd0528c5b46
1.6 2.0 3 cartesian e040f01177ee70e2f9a47d49586bd9f72f3a7c68891255b55b22fb918a03d9c2
1.6 4.0 1 radial 8ed8e1d659051ed4be4090f75cdd7327b8eed99bf9709d66834d41f76d252f88
1.6 4.0 1 cartesian 4e86818d6081af2de5a5f24e808fed93143b1097a6f16b51791b84b7fde65bb6
1.6 4.0 3 radial 4256fad1c06637a8a9e04982cd9c8ad13a074ddae5b2b58bb9dfb0ee6618b556
1.6 4.0 3 cartesian 4e86818d6081af2de5a5f24e808fed93143b1097a6f16b51791b84b7fde65bb6
2.0 0.3 1 radial 424a68667fcef14f749fd65da48052c4e3e6ac080275706681c0abb3cba80560
2.0 0.3 1 cartesian c3daf530c4a2bef90926ad9f5fd3ed7aaadff1eb0ffd8e051fd08c442899ff7f
2.0 0.3 3 radial f9608a4e399ed4c2d29c4977f13640f535815708795d63438ea2093a16073f3b
2.0 0.3 3 cartesian c3daf530c4a2bef90926ad9f5fd3ed7aaadff1eb0ffd8e051fd08c442899ff7f
2.0 0.6 1 radial 8a7a6e5848864d355dc6ee7621c83db99f4b65e318f03d7ee7b9bc8fb410e0c7
2.0 0.6 1 cartesian 741f340921306e462dec642be1d343b1d355f14285a533543f1f356e83463490
2.0 0.6 3 radial 9fd292829946ac56e2218a620e038f6a140fd0dc9c81f9acbe2d5e7751ea7159
2.0 0.6 3 cartesian 741f340921306e462dec642be1d343b1d355f14285a533543f1f356e83463490
2.0 1.0 1 radial 9038c1a62783373682b1bc4d831b027e4737920dd29e830fe4b3357c19c8f085
2.0 1.0 1 cartesian fbb41b4eda0d0aa9be9e0edf49a0247e71eeab9429c1608ad0a66efced57d293
2.0 1.0 3 radial b95d82d77ab4e6c76a30cd0bab2b7692631f5023cb75de7dbb4a5dd4b75cecea
2.0 1.0 3 cartesian fbb41b4eda0d0aa9be9e0edf49a0247e71eeab9429c1608ad0a66efced57d293
2.0 2.0 1 radial 252dc5f665e45e7402032e19d2f8e0e0f39980f1c5b1a8030a4bd5185c6ff717
2.0 2.0 1 cartesian 781fd63bd191869d2e9362f50b2a61b83cb2024e0b7917c00e834c14f99fb1ca
2.0 2.0 3 radial 3a0d793d6252b9dd1a65645b0c6b7cf3420169b05974d9ffeeb4180117428cf0
2.0 2.0 3 cartesian 781fd63bd191869d2e9362f50b2a61b83cb2024e0b7917c00e834c14f99fb1ca
2.0 4.0 1 radial 19fe0867e888aa84ae0ba712cb695ce93901d8e9f9eef2989aca7de7ae64b44e
2.0 4.0 1 cartesian a2a1d2ba13342ff9602d68ece126604663858f7b48cc921d0f6c9ff5e8b99fdf
2.0 4.0 3 radial a9bdecf013d1adde11f41e565b55bb14a5343962d9a1852a64da61618726f1ac
2.0 4.0 3 cartesian a2a1d2ba13342ff9602d68ece126604663858f7b48cc921d0f6c9ff5e8b99fdf
3.0 0.3 1 radial f33249d59b935e8d00e249b81f20f7c2a73b29ce82dc4e1be9ad475f4faa6ee7
3.0 0.3 1 cartesian 9fd4e0ada52eff25ccb88eda128a697d3868a07162351a519fce8dd31f21a981
3.0 0.3 3 radial ef1841c341183e8882de2b33cffc5cf552186fd8386e953deca7b6723d8e5f67
3.0 0.3 3 cartesian 9fd4e0ada52eff25ccb88eda128a697d3868a07162351a519fce8dd31f21a981
3.0 0.6 1 radial 40a25561c990203f411ea187da33004253c81fadf6cc05794a470e424876ddcc
3.0 0.6 1 cartesian d117dcf5beed15e9fc80bd9864700efd7b67f52812e6d5705cbace9acf472cf3
3.0 0.6 3 radial ec49be0cdd5b0382a44a6ca0dd4cafc04aae7256884841549641c64b202c7006
3.0 0.6 3 cartesian d117dcf5beed15e9fc80bd9864700efd7b67f52812e6d5705cbace9acf472cf3
3.0 1.0 1 radial ab61cc4676f0f454b3337f85b6311b3388bedf51df64d163c219338ee1867f22
3.0 1.0 1 cartesian c1782c359dd01d72d1fd445d5ac618ec475dc90d1a2bdb3f839aaac90c56677a
3.0 1.0 3 radial 6e33dc587fce0bccc9450052110f6e984993603f0f6999b84c7c37c2665782ab
3.0 1.0 3 cartesian c1782c359dd01d72d1fd445d5ac618ec475dc90d1a2bdb3f839aaac90c56677a
3.0 2.0 1 radial 43da9bd10891ba5fab5cf8d710b2eab34a63da294f0fa7953c6a92a94489c488
3.0 2.0 1 cartesian 9883489989183355fddfd857ed8c58871ab94a75455c998fab68705794b44011
3.0 2.0 3 radial 75d6a3cc0741079ea315568bddcada3a1ab2f49ade589914b39be6720495af17
3.0 2.0 3 cartesian 9883489989183355fddfd857ed8c58871ab94a75455c998fab68705794b44011
3.0 4.0 1 radial fc85f5ce966bdcb90107d8fdcc8b5b302789ee39d34a6abf758624e2768c7a7f
3.0 4.0 1 cartesian 8e058bb85a7219e290b8abef1563490a4490e3cf9ecadb0345f053ca72b8f04f
3.0 4.0 3 radial 6fb2b086b41d948b74c7c8d0d326b6d702128e813c1f85c0786cbeaf5a08b9d1
3.0 4.0 3 cartesian 8e058bb85a7219e290b8abef1563490a4490e3cf9ecadb0345f053ca72b8f04f
4.5 0.3 1 radial 1520ae996723f939231e735707076a030757b3fc8598e6a7e99d050cb92fc060
4.5 0.3 1 cartesian 24f220dcff12a7d9fa14fcdc2d7de82a2bf45ced87077305a79fd2e6182327ee
4.5 0.3 3 radial a8aea2abe1f14ed3638859dea5fdf39112eeae85e6f256430ebf68eaec83cbe2
4.5 0.3 3 cartesian 24f220dcff12a7d9fa14fcdc2d7de82a2bf45ced87077305a79fd2e6182327ee
4.5 0.6 1 radial c5647cc472608bead770d270f4e80b1e790a3ca5f390a80f7ed0686405ba105c
4.5 0.6 1 cartesian b8f74ef75d9e423ef46602892f74320f2b54f1a3a4c9f8f0c1352ee36aec5ddb
4.5 0.6 3 radial 2e5ed3a6fcb59ae55468267fb232f9f01c95bfc03ff64d491d287439848281a1
4.5 0.6 3 cartesian b8f74ef75d9e423ef46602892f74320f2b54f1a3a4c9f8f0c1352ee36aec5ddb
4.5 1.0 1 radial 161f0f858300840d6211863268086759e52c09a320d3aef50fc6fd56dc3d35bd
4.5 1.0 1 cartesian cd7dce89bf3bf123698b75ad41937eb12290f49b0f28eb1eda5fffc2805d2ed2
4.5 1.0 3 radial acb6cadc1d858fbf15d674cdf00fcf3059762d30f0273d5e895465b7f42bda09
4.5 1.0 3 cartesian cd7dce89bf3bf123698b75ad41937eb12290f49b0f28eb1eda5fffc2805d2ed2
4.5 2.0 1 radial 5f6e8d110ba5267742bf0c4779ab0d58db22b9f151f8d51721105d61078fc0fc
4.5 2.0 1 cartesian 9e1ca1ad625a9bf9a380a40511af377dfc07b41eeefeffdba110fad321dc2565
4.5 2.0 3 radial 1526133277c062ffb0d925da6a2753afdd7746f9b9feeca5a8e6714742f3470e
4.5 2.0 3 cartesian 9e1ca1ad625a9bf9a380a40511af377dfc07b41eeefeffdba110fad321dc2565
4.5 4.0 1 radial ef62fd3c7260fcb389b5c730e4f48e74a55d9a28ae11c4c078b8feb630b87064
4.5 4.0 1 cartesian 5a7ae2c663b468f5922eb95e703cfcaae6bd78bc8e060177d6f24a3b364e34dd
4.5 4.0 3 radial 859857bb453e00c2ae5d1bb7b1ae24db82dba97e6da6e3a4d0349d439065003f
4.5 4.0 3 cartesian 5a7ae2c663b468f5922eb95e703cfcaae6bd78bc8e060177d6f24a3b364e34dd
1.5 0.3 radial fail 6aa2a8dbcb13b3e84304b05453e2dddd347f9051768acd6d698474c11a14160a
1.5 0.3 cartesian fail 432117a8ec509cafbfae6d17f2186d88adea6166e3d9d0a20584a4b2bb9402ab
"""
KERNEL_DIGESTS = {
    tuple(row[:-1]): row[-1]
    for row in map(str.split, _DIGEST_TABLE.splitlines())
}


def _digest(run):
    """sha256 of `_steps`' fields, infos and failure, as recorded: each info
    is hashed as (iters, residual, 0.0), whose last slot held the clipped
    mass of the positivity floor the solver had when they were recorded,
    0.0 in every recorded run."""
    fields, infos, failure = run
    h = hashlib.sha256()
    for u, info in zip(fields, infos):
        assert sorted(info) == ["iters", "residual"]
        h.update(u.tobytes())
        h.update(np.array([info["iters"], info["residual"], 0.0]).tobytes())
    if failure is not None:
        h.update(np.array(failure).tobytes())
    return h.hexdigest()


# the exponent lattice of the regime sweep: slow, Trudinger and fast
# diffusion, p < 2, q < 1, p >= N, radial and cartesian
LATTICE = list(
    itertools.product(
        (1.3, 1.6, 2.0, 3.0, 4.5), (0.3, 0.6, 1.0, 2.0, 4.0), (1, 3),
        ("radial", "cartesian"),
    )
)


@pytest.mark.parametrize("geometry", ["radial", "cartesian"])
@pytest.mark.parametrize("n_dim", [1, 3])
def test_same_bits_as_reference_over_exponent_map(n_dim, geometry):
    cfg = SolverConfig(dt=2e-4)
    cases = [(p, q) for p, q, n, geo in LATTICE if (n, geo) == (n_dim, geometry)]
    assert len(cases) == 25
    for p, q in cases:
        pr = _lattice_problem(p, q, n_dim, geometry)
        got = _digest(_steps(pr, cfg, 3))
        assert got == KERNEL_DIGESTS[f"{p}", f"{q}", f"{n_dim}", geometry], (p, q)


@pytest.mark.parametrize("geometry", ["radial", "cartesian"])
def test_same_failure_as_reference(geometry):
    # `solver-supercritical-run` at p = 1.5, q = 0.3 with `inner_bump` data
    # (on [0, 0.2) of [0, 1]) fails at the first step
    cfg = SolverConfig(dt=2e-4)
    g = Grid1D(0.0, 1.0, 200, geometry, 3)
    x = g.centers()
    u0 = np.where(x < 0.2, np.cos(np.pi * x / 0.4) ** 2, 0.0)
    pr = CauchyDirichletProblem(ExponentTriple(1.5, 0.3, 3), g, u0, 1.0)
    run = _steps(pr, cfg, 1)
    assert run[0] == [] and run[2] is not None
    assert _digest(run) == KERNEL_DIGESTS["1.5", "0.3", geometry, "fail"]


class TestWorkspace:
    def _pair(self):
        a = _lattice_problem(2.0, 2.0, 3, "radial", n_cells=24)
        b = _lattice_problem(3.0, 0.6, 1, "cartesian", n_cells=40)
        return a, b

    def test_interleaved_runs_same_bits(self):
        cfg = SolverConfig(dt=2e-4)
        problems = self._pair()
        alone = [_steps(pr, cfg, 4)[0] for pr in problems]
        discs = [_Discretization(pr) for pr in problems]
        us = [pr.initial for pr in problems]
        for k in range(4):
            for j, pr in enumerate(problems):
                us[j], _ = step(pr, us[j], k * cfg.dt, cfg.dt, cfg, disc=discs[j])
                assert np.array_equal(_bits(us[j]), _bits(alone[j][k]))

    def test_no_shared_memory(self):
        cfg = SolverConfig(dt=2e-4)
        for pr in self._pair():
            pr.t_end = 5 * cfg.dt
            fields = solve(pr, cfg).fields
            assert not np.shares_memory(fields[0], pr.initial)
            for a, b in itertools.combinations(fields, 2):
                assert not np.shares_memory(a, b)
            disc = _Discretization(pr)
            owned = [disc.flux, disc.dflux, disc.second, disc.abs_R, disc.b_prev]
            owned += [
                a for s in disc.states
                for a in (s.ue, s.grads, s.div, s.beta, s.base, s.bands)
            ]
            for a, b in itertools.combinations(owned, 2):
                assert not np.shares_memory(a, b)
            u, t = pr.initial, 0.0
            for _ in range(3):
                u_next, _ = step(pr, u, t, cfg.dt, cfg, disc=disc)
                for a in owned:
                    assert not np.shares_memory(u_next, a)
                assert not np.shares_memory(u_next, u)
                u, t = u_next, t + cfg.dt


def _carry_problem(p, q, geometry, boundary):
    """cos_bump data less 0.3 (zero near the edge) on [0, 1] (radial,
    N = 3) or [-1, 1] (cartesian), with zero, moving (`dirichlet`) or
    closed-form (`from_exact`) boundary data."""
    x_lo = 0.0 if geometry == "radial" else -1.0
    g = Grid1D(x_lo, 1.0, 24, geometry, 3)
    u0 = np.maximum(np.cos(np.pi * g.centers() / 2) ** 2 - 0.3, 0.0)
    kwargs = {}
    if boundary == "dirichlet":
        kwargs["boundary_values"] = lambda t: (0.1 + t, 0.2 + t)
    elif boundary == "from_exact":
        kwargs["exact"] = TrudingerGaussian(p=p, n_dim=3)
    return CauchyDirichletProblem(
        ExponentTriple(p, q, 3), g, u0, 1.0, boundary=boundary, **kwargs
    )


def _split_steps(problem, u, t, dt, config, failed, splits=7):
    """`Trajectory`'s step from u at t by dt, split where it fails, by bare
    steps with a fresh workspace each; `failed` gets the t of each step that
    fails."""
    try:
        return step(problem, u, t, dt, config)
    except StepFailure:
        failed.append(t)
        if not splits:
            raise
    u, a = _split_steps(problem, u, t, dt / 2, config, failed, splits - 1)
    u, b = _split_steps(problem, u, t + dt / 2, dt / 2, config, failed, splits - 1)
    return u, {
        "iters": a["iters"] + b["iters"],
        "residual": max(a["residual"], b["residual"]),
    }


class TestCarriedResidual:
    """A zero Dirichlet run starts each step from the state the last step
    accepted; every other run computes its first residual."""

    @pytest.mark.parametrize("geometry", ["radial", "cartesian"])
    @pytest.mark.parametrize(
        "boundary", ["zero_dirichlet", "dirichlet", "from_exact"]
    )
    def test_trajectory_same_bits_as_fresh_steps(self, geometry, boundary):
        # q = 0.3 takes beta's masked ufuncs where u vanishes and q = 4 the
        # q V fold.  Some q = 0.3 runs stall at every split, and the
        # trajectory then stalls with the fresh steps' failure; q = 0.3 runs
        # at p = 2 only, as a p = 1.5 stall splits down to dt/128 for up to
        # 4.5 s
        failed, stalled = [], []
        exponents = list(itertools.product((1.5, 2.0, 3.0), (0.5, 1.0, 2.0, 4.0)))
        carries = boundary == "zero_dirichlet"
        for p, q in exponents + [(2.0, 0.3)]:
            pr = _carry_problem(p, q, geometry, boundary)
            cfg = SolverConfig(dt=2e-4)
            pr.t_end = 6 * cfg.dt
            traj = Trajectory(pr, cfg)
            u = pr.initial
            for k in range(6):
                where = (p, q, k)
                # no workspace: a fresh first residual on every step
                try:
                    u, info = _split_steps(
                        pr, u, traj.times[k], cfg.dt, cfg, [] if q == 0.3 else failed
                    )
                except StepFailure as exc:
                    with pytest.raises(StepFailure) as stall:
                        traj.row(k + 1)
                    assert stall.value.time == exc.time, where
                    assert _bits(stall.value.residual) == _bits(exc.residual)
                    stalled.append(q)
                    break
                row = traj.row(k + 1)
                assert np.array_equal(_bits(u), _bits(row)), where
                assert info["iters"] == traj.newton_iters[k + 1], where
                assert _bits(info["residual"]) == _bits(traj.residual_norms[k + 1])
                assert (traj._disc.returned is row) == carries, where
        assert set(stalled) <= {0.3}
        # q < 1 data that vanish: the radial p = 3, q = 0.5 run splits its
        # second step
        assert failed == ([2e-4] if geometry == "radial" else [])

    def _first_residuals(self, disc):
        """Wrap `disc.residual`; the list gets True for each first residual
        computed afresh (the one call given beta(u))."""
        fresh = []
        real = disc.residual

        def counted(state, b_prev, t_new, dt, b_u=None):
            fresh.append(b_u is not None)
            return real(state, b_prev, t_new, dt, b_u=b_u)

        disc.residual = counted
        return fresh

    @pytest.mark.parametrize("change", ["copy", "in-place"])
    def test_copied_or_changed_return_is_computed_afresh(self, change):
        pr = _carry_problem(3.0, 2.0, "radial", "zero_dirichlet")
        cfg = SolverConfig(dt=2e-4)
        dt = cfg.dt
        disc = _Discretization(pr)
        fresh = self._first_residuals(disc)
        u1, _ = step(pr, pr.initial, 0.0, dt, cfg, disc=disc)
        u2, _ = step(pr, u1, dt, dt, cfg, disc=disc)
        assert sum(fresh) == 1  # the first step only
        if change == "copy":
            u2 = u2.copy()
        else:
            u2[5] *= 0.5
        want = step(pr, u2, 2 * dt, dt, cfg)[0]
        del fresh[:]
        got = step(pr, u2, 2 * dt, dt, cfg, disc=disc)[0]
        assert fresh[0]
        assert np.array_equal(_bits(got), _bits(want))
        # the step after is carried again
        del fresh[:]
        step(pr, got, 3 * dt, dt, cfg, disc=disc)
        assert not any(fresh)

    def test_failed_step_drops_the_carry(self):
        pr = _carry_problem(3.0, 2.0, "radial", "zero_dirichlet")
        cfg = SolverConfig(dt=2e-4)
        disc = _Discretization(pr)
        fresh = self._first_residuals(disc)
        u1, _ = step(pr, pr.initial, 0.0, cfg.dt, cfg, disc=disc)
        no_iterations = SolverConfig(dt=cfg.dt, max_newton=0)
        with pytest.raises(StepFailure):
            step(pr, u1, cfg.dt, cfg.dt, no_iterations, disc=disc)
        del fresh[:]
        got = step(pr, u1, cfg.dt, cfg.dt, cfg, disc=disc)[0]
        assert fresh[0]
        want = step(pr, u1, cfg.dt, cfg.dt, cfg)[0]
        assert np.array_equal(_bits(got), _bits(want))


def _extinction_problem():
    """The `extinction-bound` preset's run: p = 2, q = 2, radial N = 3,
    steep bump data that vanish by t = 0.06, 1,200 steps of 2.5e-4."""
    return cli.build_problem(cli.preset("extinction-bound")[1])


class TestIdleStep:
    """A carried step whose previous step took no iteration, at the same
    dt and tolerance, returns that step's residual at once."""

    def _computed(self, monkeypatch):
        """The list gets one entry per step that computes: each builds its
        dt as a 0-d array (`np.array(dt)`) once, and an idle step does not.
        (A carried step takes beta(u_prev) from the step before, so
        counting `_beta` calls would miss it.)"""
        calls = []
        spied = types.ModuleType("numpy")
        spied.__getattr__ = lambda name: getattr(np, name)
        spied.array = lambda *a: calls.append(1) or np.array(*a)
        monkeypatch.setattr(solver, "np", spied)
        return calls

    def test_trajectory_same_bits_as_fresh_steps(self, monkeypatch):
        pr, cfg = _extinction_problem()
        traj = Trajectory(pr, cfg)
        computed = self._computed(monkeypatch)
        traj.row(len(traj.times) - 1)
        steps = len(traj.times) - 1
        idle = steps - len(computed)
        assert idle > 900  # past extinction
        u = pr.initial
        for k in range(steps):
            u, info = step(pr, u, traj.times[k], traj._dts[k], cfg)
            assert np.array_equal(_bits(u), _bits(traj.fields[k + 1])), k
            assert info["iters"] == traj.newton_iters[k + 1], k
            assert _bits(info["residual"]) == _bits(traj.residual_norms[k + 1])

    def _idle(self):
        """(problem, config, workspace, the last step's return, t) with the
        workspace's last two steps idle."""
        pr, cfg = _extinction_problem()
        traj = Trajectory(pr, cfg)
        k = 1000
        u = traj.row(k)
        disc = traj._disc
        assert traj.newton_iters[k - 1] == traj.newton_iters[k] == 0
        assert disc.idle is not None and disc.returned is u
        return pr, cfg, disc, u, traj.times[k]

    @pytest.mark.parametrize("change", [
        "dt", "newton_tol", "copy", "in-place", "failure", "other-array",
    ])
    def test_every_change_clears_it(self, monkeypatch, change):
        pr, cfg, disc, u, t = self._idle()
        dt = cfg.dt
        computed = self._computed(monkeypatch)
        # a larger dt or a smaller tolerance shrinks the residual's
        # tolerance: these steps iterate
        if change == "dt":
            dt = cfg.dt * 1e7
        elif change == "newton_tol":
            cfg = SolverConfig(dt=dt, newton_tol=1e-17)
        elif change == "copy":
            u = u.copy()
        elif change == "in-place":
            u[3] *= 0.5
        elif change == "failure":
            strict = SolverConfig(dt=dt, newton_tol=1e-30, max_newton=0)
            with pytest.raises(StepFailure):
                step(pr, u, t, dt, strict, disc=disc)
        else:
            step(pr, u.copy(), t, dt, cfg, disc=disc)
        del computed[:]
        got = step(pr, u, t, dt, cfg, disc=disc)
        assert computed == [1]
        want = step(pr, u, t, dt, cfg)
        assert np.array_equal(_bits(got[0]), _bits(want[0]))
        assert got[1] == want[1]
        assert _bits(got[1]["residual"]) == _bits(want[1]["residual"])
        assert (got[1]["iters"] > 0) == (change in ("dt", "newton_tol"))
        # the next step, from the return, is idle unless this one iterated
        del computed[:]
        again = step(pr, got[0], t + dt, dt, cfg, disc=disc)
        assert computed == ([1] if got[1]["iters"] else [])
        want = step(pr, got[0], t + dt, dt, cfg)
        assert np.array_equal(_bits(again[0]), _bits(want[0]))
        assert again[1] == want[1]


    def test_full_step_after_a_split_is_not_idle(self, monkeypatch):
        # step 1001, made to fail once at full dt, is split: the second half
        # returns at once, idle at dt/2.  Step 1002, at dt, is carried but
        # computes its residual, with the bits of a fresh step
        pr, cfg = _extinction_problem()
        traj = Trajectory(pr, cfg)
        traj.row(1000)
        dts = []
        real = solver.step

        def fails_once(problem, u_prev, t, dt, config, disc=None):
            dts.append(dt)
            if len(dts) == 1:
                raise StepFailure("nonlinear iteration did not converge",
                                  t + dt, 1.0, 1e-3)
            return real(problem, u_prev, t, dt, config, disc=disc)

        monkeypatch.setattr(solver, "step", fails_once)
        computed = self._computed(monkeypatch)
        traj.row(1001)
        assert dts == [cfg.dt, cfg.dt / 2, cfg.dt / 2]
        assert computed == [1] and traj.newton_iters[1001] == 0
        del computed[:]
        got = traj.row(1002)
        assert computed == [1] and traj._disc.idle[0][0] == cfg.dt
        want = step(pr, traj.fields[1001], traj.times[1001], cfg.dt, cfg)[0]
        assert np.array_equal(_bits(got), _bits(want))

    def test_step_accepted_over_its_tolerance_is_not_idle(self, monkeypatch):
        # no iteration allowed, the residual at 10x its tolerance is
        # accepted; the next step, allowed to iterate, does
        pr, cfg, disc, u, t = self._idle()
        norm = disc.idle[1]
        scale = (float((u * u).max()) + 1e-14) * disc.vol_max / cfg.dt
        newton_tol = norm / scale / 10
        lax = SolverConfig(dt=cfg.dt, newton_tol=newton_tol, max_newton=0)
        u1, info = step(pr, u, t, cfg.dt, lax, disc=disc)
        assert info["iters"] == 0 and info["residual"] == norm
        strict = SolverConfig(dt=cfg.dt, newton_tol=newton_tol)
        computed = self._computed(monkeypatch)
        got = step(pr, u1, t + cfg.dt, cfg.dt, strict, disc=disc)
        assert computed == [1] and got[1]["iters"] > 0
        want = step(pr, u1, t + cfg.dt, cfg.dt, strict)
        assert np.array_equal(_bits(got[0]), _bits(want[0]))
        assert got[1] == want[1]

def _masked_phi(g, mu, p):
    """(mu^2 + g^2)^{(p-2)/2} with every entry whose base is not > 0 set
    to 0: the formula before the mask was dropped."""
    base = g * g + mu * mu
    out = np.zeros_like(g)
    return np.power(base, (p - 2) / 2, out=out, where=base > 0)


def _masked_phi_total_deriv(g, mu, p):
    """(mu^2+g^2)^{(p-4)/2} (mu^2 + (p-1) g^2), masked as `_masked_phi`."""
    base = g * g + mu * mu
    pos = base > 0
    out = np.zeros_like(g)
    np.power(base, (p - 4) / 2, out=out, where=pos)
    second = g * (p - 1) * g + mu * mu
    return np.multiply(out, second, out=out, where=pos)


class TestFluxFactors:
    """`_phi` takes no mask, `_phi_total_deriv` one for 2 < p < 4 only and
    there only when its base has a zero; the bits are those of the masked
    formulas wherever g is a number."""

    G = np.array([0.0, -0.0, 1e-200, -1e-200, 1e-3, -2.5, 1e200, np.inf,
                  -np.inf, np.nan])
    # no g whose base mu^2 + g^2 is 0 (1e-200 squared underflows to 0)
    G_FREE = np.array([1e-150, -1e-150, 1e-3, -2.5, 7.0, 1e200, np.inf, -np.inf])

    def _factors(self, g, mu, p):
        """(phi, its total derivative) as the residual and the Jacobian
        compute them: the derivative from the base `_phi` left."""
        phi, deriv, base, second = (np.empty_like(g) for _ in range(4))
        solver._phi(g, mu, p, phi, base)
        solver._phi_total_deriv(g, mu, p, deriv, base, second)
        return phi, deriv

    @pytest.mark.parametrize("p", [1.5, 2.5, 3.0, 4.0, 4.5])
    def test_same_bits_as_masked_formula(self, p):
        mu = 1e-8 if p < 2 else 0.0
        with np.errstate(all="ignore"):
            phi, deriv = self._factors(self.G, mu, p)
            want_phi = _masked_phi(self.G, mu, p)
            want_deriv = _masked_phi_total_deriv(self.G, mu, p)
            flux, want_flux = phi * self.G, want_phi * self.G
        num = slice(None, -1)
        assert np.array_equal(_bits(phi[num]), _bits(want_phi[num]))
        assert np.array_equal(_bits(deriv[num]), _bits(want_deriv[num]))
        # at g = nan the flux phi(g) g is nan either way
        assert np.isnan(flux[-1]) and np.isnan(want_flux[-1])
        # the residual of a nan gradient is nan, so the step fails before any
        # Jacobian (`TestNonFiniteInputs`); unmasked, the derivative is nan
        assert want_deriv[-1] == 0.0
        assert (deriv[-1] == 0.0) if 2 < p < 4 else np.isnan(deriv[-1])
        # p = 4: 0^0 = 1 times a second factor of 0
        if p == 4:
            assert deriv[0] == 0.0 and not np.signbit(deriv[0])

    @pytest.mark.parametrize("p", [1.5, 2.5, 3.0, 4.0, 4.5])
    def test_zero_free_base_same_bits_as_masked_formula(self, p):
        # the unmasked branch, taken at every p here, against the mask
        mu = 1e-8 if p < 2 else 0.0
        with np.errstate(all="ignore"):
            phi, deriv = self._factors(self.G_FREE, mu, p)
            want_phi = _masked_phi(self.G_FREE, mu, p)
            want_deriv = _masked_phi_total_deriv(self.G_FREE, mu, p)
        assert np.array_equal(_bits(phi), _bits(want_phi))
        assert np.array_equal(_bits(deriv), _bits(want_deriv))
        # and against the same g beside a zero, which takes the mask
        with_zero = np.append(self.G_FREE, 0.0)
        with np.errstate(all="ignore"):
            masked = self._factors(with_zero, mu, p)[1][:-1]
        assert np.array_equal(_bits(deriv), _bits(masked))


class TestBetaBranches:
    """`_beta` at q < 1 takes the masked ufuncs only for a u with a zero;
    elsewhere the unmasked ones give the same bits."""

    U = np.array([1e-300, 5e-7, 1e-3, 0.25, 0.5, 0.999, 1.0, 3.0, 1e10, 1e300])

    @pytest.mark.parametrize("q", [0.05, 0.3, 0.5, 0.6, 0.7, 0.9])
    def test_unmasked_same_bits_as_masked(self, q):
        with_zero = np.append(self.U, [0.0, -0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            unmasked = solver._beta(self.U, q)
            masked = solver._beta(with_zero, q)
        assert np.array_equal(_bits(unmasked), _bits(masked[:-2]))
        assert np.array_equal(_bits(masked[-2:]), _bits(np.zeros(2)))
        # both are |u|^(q-1) u as numpy's power takes it
        want = np.power(self.U, q - 1) * self.U
        assert np.array_equal(_bits(unmasked), _bits(want))
        # into `out` too, as the kernel calls it
        out = np.empty_like(self.U)
        assert solver._beta(self.U, q, out) is out
        assert np.array_equal(_bits(out), _bits(want))
