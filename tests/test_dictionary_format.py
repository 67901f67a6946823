"""Golden hashes of the dictionary JSON format.

Each case builds one library with the public builders (and pruning) and
hashes ``Dictionary.to_json()``: any change to which terms a library holds,
their order, or the value and the text of a written field changes a hash.
The cases cover flow and map families in 1D and 2D (two slaved pairs among
them), integer and non-integer orders, ``include_linear`` both ways, pruned
libraries, and integer libraries in one to three variables.

To re-record after a deliberate format change, run

    PYTHONPATH=src python tests/test_dictionary_format.py

and paste the printed table over ``GOLDEN``.
"""

import hashlib

import numpy as np
import pytest

from ssmfrac import dictionary, spectrum


def _polar(mod, angle):
    return (mod * np.cos(angle), mod * np.sin(angle))


SPECTRA = {
    "planar": spectrum.SpectralPartition(kind="flow", lam=(-1.0,),
                                         kappa=(-2.5,)),
    "flow1d_two": spectrum.SpectralPartition(kind="flow", lam=(-0.8,),
                                             kappa=(-1.3, -2.9)),
    "flow1d_mixed_sign": spectrum.SpectralPartition(kind="flow", lam=(-1.0,),
                                                    kappa=(2.0, -1.7)),
    "flow1d_no_slaved": spectrum.SpectralPartition(kind="flow", lam=(-1.0,)),
    "couette": spectrum.SpectralPartition.from_map_logs(
        [-0.035068], (-0.069776, -0.073369, -0.140274, -0.168877)),
    "map1d_expanding": spectrum.SpectralPartition(kind="map", lam=(0.5,),
                                                  kappa=(2.0, 0.2)),
    "shaw_pierre": spectrum.SpectralPartition(
        kind="flow", alpha_omega=((-0.07414969295, 1.00270482892),),
        beta_nu=((-0.37585030705, 1.68117359494),)),
    "flow2d_two_pairs": spectrum.SpectralPartition(
        kind="flow", alpha_omega=((-0.4, 1.1),),
        beta_nu=((-0.9, 2.3), (-1.5, -0.4))),
    "flow2d_coincident": spectrum.SpectralPartition(
        kind="flow", alpha_omega=((-1.0, 2.0),), beta_nu=((-2.0, 1.0),)),
    "flow2d_no_slaved": spectrum.SpectralPartition(
        kind="flow", alpha_omega=((-0.5, 1.5),)),
    "map2d": spectrum.SpectralPartition(
        kind="map", alpha_omega=(_polar(np.exp(-1.0), 0.4),),
        beta_nu=(_polar(np.exp(-2.0), 1.1),)),
    "map2d_two_pairs": spectrum.SpectralPartition(
        kind="map", alpha_omega=(_polar(0.8, 0.7),),
        beta_nu=(_polar(0.5, -1.2), _polar(0.3, 2.5))),
}

BUILDERS = {
    "planar": dictionary.dictionary_flow_1d,
    "flow1d_two": dictionary.dictionary_flow_1d,
    "flow1d_mixed_sign": dictionary.dictionary_flow_1d,
    "flow1d_no_slaved": dictionary.dictionary_flow_1d,
    "couette": dictionary.dictionary_map_1d,
    "map1d_expanding": dictionary.dictionary_map_1d,
    "shaw_pierre": dictionary.dictionary_flow_2d,
    "flow2d_two_pairs": dictionary.dictionary_flow_2d,
    "flow2d_coincident": dictionary.dictionary_flow_2d,
    "flow2d_no_slaved": dictionary.dictionary_flow_2d,
    "map2d": dictionary.dictionary_map_2d,
    "map2d_two_pairs": dictionary.dictionary_map_2d,
}

ORDERS = {"shaw_pierre": (5, 7.5), "couette": (3, 4.5)}
PRUNED = [("couette", 5, 0.05), ("couette", 4.5, 0.05),
          ("flow2d_coincident", 4, 0.1), ("flow2d_coincident", 3.5, 0.1),
          ("planar", 5, 0.6), ("map1d_expanding", 4, 0.2),
          ("flow2d_two_pairs", 4, 0.3), ("map2d", 4, 0.1)]


def _cases():
    """(id, builder thunk) for every golden case."""
    out = []
    for name, build in BUILDERS.items():
        for K in ORDERS.get(name, (3, 4.5)):
            for linear in (True, False):
                out.append((f"{name}-K{K}-linear{linear}",
                            lambda b=build, n=name, K=K, lin=linear:
                            b(SPECTRA[n], K, include_linear=lin)))
    for name, K, tol in PRUNED:
        out.append((f"{name}-K{K}-prune{tol}",
                    lambda n=name, K=K, tol=tol: dictionary.prune_near_integer(
                        BUILDERS[n](SPECTRA[n], K), tol)))
    for n_vars in (1, 2, 3):
        for K in (1, 3, 4):
            out.append((f"integer-n{n_vars}-K{K}",
                        lambda n=n_vars, K=K:
                        dictionary.integer_dictionary(n, K)))
    mixed = spectrum.SpectralPartition(kind="map", lam=(0.5,),
                                       alpha_omega=(_polar(0.7, 1.0),))
    out.append(("integer-n3-K2-map-spectrum",
                lambda: dictionary.integer_dictionary(3, 2, spec=mixed)))
    return out


def _digest(d):
    return hashlib.sha256(d.to_json().encode()).hexdigest()


GOLDEN = {
    'planar-K3-linearTrue':
        '2c6c0ffcc7ff4041f053b3898d76470e98eeee85c7a151c2255d7b1ceb44da01',
    'planar-K3-linearFalse':
        'fbcad5889d86fd37abb1adc17b36284c3af56fefaeb487ebdc8593abc3c1542c',
    'planar-K4.5-linearTrue':
        '99a74c54f6c151563a914ce6e0ffd34950a09f5751e3b11ba8f77f1e0b0b8345',
    'planar-K4.5-linearFalse':
        'efee9b9218ced6f4464b82246d00913af2b6f0b66cb38eff7dd5cefedd7e05d4',
    'flow1d_two-K3-linearTrue':
        '35df8fc0040203f0f5fe1b27fe5bccb57ba3df3256cc98f5983eee1eda400a35',
    'flow1d_two-K3-linearFalse':
        '53d1cc8faee9af1fe281e0d42316cde27379ad76528fd2f9263c6c85c570d968',
    'flow1d_two-K4.5-linearTrue':
        'd9d5e89802163632649125de6e165fdb264acbeded387312eef802a9c29c38f0',
    'flow1d_two-K4.5-linearFalse':
        '786c7401e0fe0e16f1aa4a0efdcc11463237f9894a810adfd0e9cb7600ecdd09',
    'flow1d_mixed_sign-K3-linearTrue':
        'd9a10bbe3057af4d5f58b9151e8b282a5ed167737476edd155ef4387d29673f6',
    'flow1d_mixed_sign-K3-linearFalse':
        '62f446e5737c35c3fabe98b1ca8a1b3a60eba0377fc80fd098acd82089be72ba',
    'flow1d_mixed_sign-K4.5-linearTrue':
        '22ff8265c00a022c2ec88a709b7b6ac7385477d4937bd0de92862826bf80b62d',
    'flow1d_mixed_sign-K4.5-linearFalse':
        '82c6e5c282552bf4ebc3bd37a922ff01bbd99216391df5bf1337c01990074403',
    'flow1d_no_slaved-K3-linearTrue':
        'd8f9783da25a5e9e42415394c9280a1ceccfdec12a4e6b6038d4bb3f509a30c3',
    'flow1d_no_slaved-K3-linearFalse':
        '00a1e09dacd90e5697308ba7fc97a2682fb3aeecd4f647aee3a31ad986cc4031',
    'flow1d_no_slaved-K4.5-linearTrue':
        '9145dcf31fe7acb5297d0fb3272a7adf5be06675c0764e7cfaa8515092e47aff',
    'flow1d_no_slaved-K4.5-linearFalse':
        '023cdab7c4824597d88d2ebefcdb707b1f8ae121da5078e67cc2e5dd3dea6270',
    'couette-K3-linearTrue':
        '8debafab02b600dfa689948871f70588b537616d383743d8bc3ff5e91e1ca9f7',
    'couette-K3-linearFalse':
        '123998a798328df7ba847208b89504f8e8740abc9662b85836df37d7a49f053c',
    'couette-K4.5-linearTrue':
        'ceb59085141e08d05a4b35b97ec965fe25d8dbabafd9ba5182be6a7b13151945',
    'couette-K4.5-linearFalse':
        'e437d7cc7bbe8cd1da2ba3020b119bd9cda6b946b8b66029c40c00acba9b703b',
    'map1d_expanding-K3-linearTrue':
        'ce7ef202b7ac3b5c3323c65cbc7cfba2e78d633ce6fdd0186f3427ed7b65ab0d',
    'map1d_expanding-K3-linearFalse':
        '7fb2b2f5412ec480f5b48a253114a0f1bada7193a6a0f7b249d2e6acb3224b00',
    'map1d_expanding-K4.5-linearTrue':
        '6b372fdb3b7c177be8fcef7457aa7b4166e7238682f3ac67b05c8e15d99239e9',
    'map1d_expanding-K4.5-linearFalse':
        '8f5717bf88e45d1a2e6067a0e54829ffa0b2726b496faeffd166a034c2d3c262',
    'shaw_pierre-K5-linearTrue':
        'ac26466ad5a9dc2cce8a8754b3061d96e3d57ea33f67510f0e91f0184433df98',
    'shaw_pierre-K5-linearFalse':
        'f4222ba392a6bed1a7bd5a10bfc76640d15b594f302d0e26bb36f9995023f86a',
    'shaw_pierre-K7.5-linearTrue':
        '5f7b1f2efe9a5ba8d930daae5ede8bbdb82f58e461b5c54af952f5d331fae8db',
    'shaw_pierre-K7.5-linearFalse':
        'f5801a3f149d9545a4d5152518562979efc9f73788d1acf3e2a5e229bf196f7a',
    'flow2d_two_pairs-K3-linearTrue':
        'af7e7ad5e2534a65c74e9c4a1e914bed28b61be90f574d0d04db8b6fa31fd5f6',
    'flow2d_two_pairs-K3-linearFalse':
        '2b3de37c1d702884c4ad9db02800806acfcf6e1b89f982ff47a7675220cf7a4b',
    'flow2d_two_pairs-K4.5-linearTrue':
        '5f096fa09b7c0f1b8c855a20fd04e41bf3ebdcc96c83b450431215aa95e6aa34',
    'flow2d_two_pairs-K4.5-linearFalse':
        'f8070b7b87082a6f4b79372e523361c6a498af4cf6650cea4665381e606e3cd3',
    'flow2d_coincident-K3-linearTrue':
        '10c972eb6058f9fafa71263eccd3e842e103c6908aeeace84453e1cc0ed06b68',
    'flow2d_coincident-K3-linearFalse':
        '9a4fa4a9e67a0d4718aa1b3fc1eb90349aa6658cf5879496ea7094a98b20c907',
    'flow2d_coincident-K4.5-linearTrue':
        '8558be0192a152bf27370a46bf5cef00a1c2ee0acef0d6d9577e07d9184fd37d',
    'flow2d_coincident-K4.5-linearFalse':
        '594be2b3b2874c54e54824189147b6fa1d2618e3e0a6141dc11776e019c68501',
    'flow2d_no_slaved-K3-linearTrue':
        '8b8aa5b3db7caaa533d8afd0d391035ea42d7c84758b7f6eaaaadbc9c45133bb',
    'flow2d_no_slaved-K3-linearFalse':
        '821e92d4a9e7df84e5c8d71d0b7ac4d50832539ee13aa0e3f9039606da4abfa1',
    'flow2d_no_slaved-K4.5-linearTrue':
        '8429939688c09e7042edde10ab735f192a456296f528a29890e2a78211bb7a4c',
    'flow2d_no_slaved-K4.5-linearFalse':
        'ad8653052b7d1f547eb036f6bf2f31aa7c9837dcdc27384ccc41216490cfa80f',
    'map2d-K3-linearTrue':
        '53c73087e3fe584f9100c9f8c919f7af93b2b57dca018e8bec0227590a2206a8',
    'map2d-K3-linearFalse':
        'e72053fb143664d9ef629ff98f4529e3165df621387a512194a97096b02e37a4',
    'map2d-K4.5-linearTrue':
        'd3c269931d926af33aa9f683ffbef414c1229506ebcdf062294f4bb95597d3fd',
    'map2d-K4.5-linearFalse':
        '7e8ea3ab0b3f020feacafe2742f76a3d5673f333e5dce26095dda4c3b98fa917',
    'map2d_two_pairs-K3-linearTrue':
        '0e6806f6e12a1f39e0c3ed69853b0218a2b8342fb3521d6026346e7b4cbb96de',
    'map2d_two_pairs-K3-linearFalse':
        'c00951d4616061b51b3c60efb4262ac5a5c1c44c923290ff7132ecebf88bbe35',
    'map2d_two_pairs-K4.5-linearTrue':
        '346d5ccc730040daa94cc1391b324a2960c694b05e1a7d3a01c253ef5adbd32c',
    'map2d_two_pairs-K4.5-linearFalse':
        '6e7b4191d2ff015801efdf7f4f4624f8593e54f4349d100d35d5681a1e11ea34',
    'couette-K5-prune0.05':
        '7d1413ee85a9ac7d0ba47bf4ace6b92cfe88330d18ebc3b33d91ed5d667c87c4',
    'couette-K4.5-prune0.05':
        '309af2c5a2dc2bb62271b26bb32f1a1218db7a861a26f5b5ed5d225c39019e9f',
    'flow2d_coincident-K4-prune0.1':
        'a74607101c3252c7515adab63c829a17173c29ff5f889d3d7d5ff004c0768868',
    'flow2d_coincident-K3.5-prune0.1':
        '615e7f97d13bd1bb19425c49b8a2f450c66955884f5c32873cd478d88261521b',
    'planar-K5-prune0.6':
        '02bf0364925eea771bd61a4e0915979084d475eb46a8f4f5ee15749bd8209535',
    'map1d_expanding-K4-prune0.2':
        '3fc7faa081c904a3d4bde6a735e61238976544a5cc5714977b0ac1887aeb0bc9',
    'flow2d_two_pairs-K4-prune0.3':
        'c0ca780ed7f909b0949a81039c82d01f08b1e26917076485180dcd758b52e532',
    'map2d-K4-prune0.1':
        'bde7d6f8f953dabc4bc782d8d4b6cec3767d0e09c651e9d5b1d847b18bfed964',
    'integer-n1-K1':
        '8d6293b3049ae452871eaef5c653e9b1e28afbecccc9342d0829b475ef5fcc3b',
    'integer-n1-K3':
        '32de3076e4cc6ffe24c766b46eec7a78023df3261ec1321e3f4cc362c49d9fe4',
    'integer-n1-K4':
        '61114c64d2fa4abf226d1dfbe08a51120dcbf3a53866e27b02faa910bf54a743',
    'integer-n2-K1':
        'd7ba2fe69a70def6de6fb4802264ecf3c3a388d3d51eb0f98cdd481d9e3f091e',
    'integer-n2-K3':
        '0d493556fad669311f5ab6ffd0939af8efdf4797f3f782d559476950e3a0d984',
    'integer-n2-K4':
        '0e00f3cd8292910613e177a35023fae1c087ab64fbf33c7b249d8b7411180366',
    'integer-n3-K1':
        'fd7e3fe4b97ae56b09a49762cedb833f7755f1a6fbc1bf770856c8afbf1e78ba',
    'integer-n3-K3':
        '07849677f074d6b47c8063d50675fe5164ebfacf62a1e70e0306fa60be65e403',
    'integer-n3-K4':
        '8ca52b883a9d41fb3b651f4d80742512bcd36f0926a073f324eb8d53d0ab44e1',
    'integer-n3-K2-map-spectrum':
        '01d85115ac0acc36bb326868e82dbdc1c939452d05285c58fc74beee75f86914',
}


@pytest.mark.parametrize("case, build", _cases(), ids=[c for c, _ in _cases()])
def test_dictionary_json_matches_golden_hash(case, build):
    assert _digest(build()) == GOLDEN[case]


if __name__ == "__main__":
    for case, build in _cases():
        print(f"    {case!r}:\n        {_digest(build())!r},")
