//! Remote and local attestation (§IV-A).
//!
//! CRONUS extends two-phase attestation to a *dynamic* TEE platform: the
//! client first verifies a closure of hardware and software state — mOS
//! hashes, mEnclave hashes, the validated device tree, and each
//! accelerator's authenticity key — and then relies on local attestation for
//! mEnclaves created later, "so a client does not need to attest an mEnclave
//! each time it is created".

use std::collections::BTreeMap;
use std::fmt;

use cronus_crypto::hmac::{hmac_sha256, verify_hmac};
use cronus_crypto::{Digest, PublicKey, Sha256, Signature};
use cronus_mos::hal::DeviceAttestation;
use cronus_mos::manifest::{Eid, MosId};

use crate::monitor::SecureMonitor;

/// The complete attestation report for one partition:
/// `(hash(mEnclave), hash(mOS), DT, PubK_acc)` signed by `AtK` (§IV-A).
#[derive(Clone, Debug)]
pub struct AttestationReport {
    /// The attested mOS.
    pub mos_id: MosId,
    /// Measured mOS image hash.
    pub mos_digest: Digest,
    /// mOS software version string.
    pub mos_version: String,
    /// Measurements of the partition's live mEnclaves.
    pub enclaves: Vec<(Eid, Digest)>,
    /// Hash of the boot device tree.
    pub devtree_digest: Digest,
    /// The accelerator's authenticity evidence.
    pub device: DeviceAttestation,
    /// The accelerator vendor name the client should resolve an endorsement
    /// key for.
    pub vendor: String,
    /// The vendor's endorsement of the device key (`Sign_vendor(PubK_acc)`).
    pub device_endorsement: Signature,
}

impl AttestationReport {
    /// Canonical digest of the report contents.
    pub fn digest(&self) -> Digest {
        let mut h = Sha256::new();
        h.update(&[self.mos_id.0]);
        h.update(self.mos_digest.as_bytes());
        h.update(self.mos_version.as_bytes());
        h.update(&[0]);
        for (eid, d) in &self.enclaves {
            h.update(&eid.as_u32().to_le_bytes());
            h.update(d.as_bytes());
        }
        h.update(self.devtree_digest.as_bytes());
        h.update(&self.device.rot_public.0.to_le_bytes());
        h.update(&self.device.config);
        h.update(self.vendor.as_bytes());
        h.finalize()
    }
}

/// A report signed by the monitor's attestation key.
#[derive(Clone, Debug)]
pub struct SignedReport {
    /// The report body.
    pub report: AttestationReport,
    /// `AtK`'s public half.
    pub atk_public: PublicKey,
    /// The platform's endorsement of `AtK`.
    pub atk_endorsement: Signature,
    /// Signature over [`AttestationReport::digest`] by `AtK`.
    pub signature: Signature,
}

/// Why client verification failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AttestationError {
    /// `AtK` is not endorsed by the attestation service's key.
    BadAtkEndorsement,
    /// The report signature does not verify under `AtK`.
    BadReportSignature,
    /// The device's self-signature over its configuration failed.
    BadDeviceSignature,
    /// The client has no endorsement key for this vendor.
    UnknownVendor(String),
    /// The vendor endorsement of `PubK_acc` failed — a fabricated device.
    BadVendorEndorsement,
    /// mOS hash differs from the client's expectation.
    MosDigestMismatch { expected: Digest, actual: Digest },
    /// A required enclave measurement is missing or different.
    EnclaveMeasurementMismatch { eid: Eid },
    /// Device tree hash differs from the client's expectation.
    DevtreeMismatch { expected: Digest, actual: Digest },
}

impl fmt::Display for AttestationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttestationError::BadAtkEndorsement => f.write_str("atk not endorsed by platform"),
            AttestationError::BadReportSignature => f.write_str("report signature invalid"),
            AttestationError::BadDeviceSignature => {
                f.write_str("device config self-signature invalid")
            }
            AttestationError::UnknownVendor(v) => write!(f, "unknown vendor {v:?}"),
            AttestationError::BadVendorEndorsement => {
                f.write_str("device key not endorsed by its vendor")
            }
            AttestationError::MosDigestMismatch { .. } => f.write_str("mos hash mismatch"),
            AttestationError::EnclaveMeasurementMismatch { eid } => {
                write!(f, "enclave {eid} measurement mismatch")
            }
            AttestationError::DevtreeMismatch { .. } => f.write_str("device tree hash mismatch"),
        }
    }
}

impl std::error::Error for AttestationError {}

/// What the client expects the platform to look like.
#[derive(Clone, Debug, Default)]
pub struct Expectations {
    /// Expected mOS image hash (the version of the mOS the service chose).
    pub mos_digest: Option<Digest>,
    /// Expected measurements for specific enclaves.
    pub enclaves: Vec<(Eid, Digest)>,
    /// Expected device tree hash.
    pub devtree_digest: Option<Digest>,
}

/// The client side of remote attestation.
#[derive(Clone, Debug)]
pub struct ClientVerifier {
    attestation_service: PublicKey,
    vendors: BTreeMap<String, PublicKey>,
}

impl ClientVerifier {
    /// Creates a verifier trusting the given attestation-service key (the
    /// platform's `PubK`).
    pub fn new(attestation_service: PublicKey) -> Self {
        ClientVerifier {
            attestation_service,
            vendors: BTreeMap::new(),
        }
    }

    /// Registers a vendor's endorsement key.
    pub fn add_vendor(&mut self, name: &str, key: PublicKey) -> &mut Self {
        self.vendors.insert(name.to_string(), key);
        self
    }

    /// Verifies a signed report against `expectations`.
    ///
    /// # Errors
    ///
    /// The first failed check, in the order: AtK endorsement, report
    /// signature, device self-signature, vendor endorsement, mOS digest,
    /// enclave measurements, device tree digest.
    pub fn verify(
        &self,
        signed: &SignedReport,
        expectations: &Expectations,
    ) -> Result<(), AttestationError> {
        // 1. AtK is endorsed by the attestation service.
        if self
            .attestation_service
            .verify(&signed.atk_public.0.to_le_bytes(), &signed.atk_endorsement)
            .is_err()
        {
            return Err(AttestationError::BadAtkEndorsement);
        }
        // 2. The report is signed by AtK.
        if signed
            .atk_public
            .verify_digest(&signed.report.digest(), &signed.signature)
            .is_err()
        {
            return Err(AttestationError::BadReportSignature);
        }
        // 3. The device signed its configuration with PvK_acc.
        if !signed.report.device.verify_self() {
            return Err(AttestationError::BadDeviceSignature);
        }
        // 4. PubK_acc is endorsed by the vendor.
        let vendor_key = self
            .vendors
            .get(&signed.report.vendor)
            .ok_or_else(|| AttestationError::UnknownVendor(signed.report.vendor.clone()))?;
        if !cronus_devices::verify_endorsement(
            *vendor_key,
            signed.report.device.rot_public,
            &signed.report.device_endorsement,
        ) {
            return Err(AttestationError::BadVendorEndorsement);
        }
        // 5..7. Software/configuration expectations.
        if let Some(expected) = expectations.mos_digest {
            if expected != signed.report.mos_digest {
                return Err(AttestationError::MosDigestMismatch {
                    expected,
                    actual: signed.report.mos_digest,
                });
            }
        }
        for (eid, expected) in &expectations.enclaves {
            match signed.report.enclaves.iter().find(|(e, _)| e == eid) {
                Some((_, actual)) if actual == expected => {}
                _ => return Err(AttestationError::EnclaveMeasurementMismatch { eid: *eid }),
            }
        }
        if let Some(expected) = expectations.devtree_digest {
            if expected != signed.report.devtree_digest {
                return Err(AttestationError::DevtreeMismatch {
                    expected,
                    actual: signed.report.devtree_digest,
                });
            }
        }
        Ok(())
    }
}

/// Local attestation (§IV-A): three steps between co-located mEnclaves.
///
/// 1. The challenger sends a request *via untrusted memory*, authenticated
///    under `secret_dhke`.
/// 2. The attested enclave obtains a measurement report sealed by the secure
///    monitor's `LSK` and tags it under `secret_dhke`.
/// 3. The challenger checks the tag (right peer) and the seal (co-located,
///    correct identity).
#[derive(Clone, Debug)]
pub struct LocalAttestation {
    /// Challenger's eid.
    pub challenger: Eid,
    /// Attested enclave's eid.
    pub attested: Eid,
    /// Fresh challenge nonce.
    pub nonce: u64,
}

impl LocalAttestation {
    fn request_bytes(&self) -> Vec<u8> {
        let mut out = b"local-attest-req".to_vec();
        out.extend_from_slice(&self.challenger.as_u32().to_le_bytes());
        out.extend_from_slice(&self.attested.as_u32().to_le_bytes());
        out.extend_from_slice(&self.nonce.to_le_bytes());
        out
    }

    fn report_digest(&self, measurement: &Digest) -> Digest {
        let mut h = Sha256::new();
        h.update(b"local-attest-report");
        h.update(&self.attested.as_u32().to_le_bytes());
        h.update(measurement.as_bytes());
        h.update(&self.nonce.to_le_bytes());
        h.finalize()
    }

    /// Step 1: the challenger authenticates the request under the shared
    /// secret.
    pub fn make_request_tag(&self, secret: &[u8]) -> Digest {
        hmac_sha256(secret, &self.request_bytes())
    }

    /// Step 2 (attested side): checks the request tag, then produces the
    /// sealed measurement report and its tag. Returns `None` if the request
    /// is not authentic (a forged challenger).
    pub fn answer(
        &self,
        secret: &[u8],
        request_tag: &Digest,
        measurement: Digest,
        sm: &SecureMonitor,
    ) -> Option<(Signature, Digest)> {
        if !verify_hmac(secret, &self.request_bytes(), request_tag) {
            return None;
        }
        let digest = self.report_digest(&measurement);
        let seal = sm.seal_local(&digest);
        let tag = hmac_sha256(secret, digest.as_bytes());
        Some((seal, tag))
    }

    /// Step 3 (challenger side): verifies the report came from the right
    /// peer (`secret_dhke` tag) and was sealed by the co-located monitor.
    pub fn verify(
        &self,
        secret: &[u8],
        measurement: Digest,
        seal: &Signature,
        tag: &Digest,
        sm: &SecureMonitor,
    ) -> bool {
        let digest = self.report_digest(&measurement);
        verify_hmac(secret, digest.as_bytes(), tag) && sm.verify_local(&digest, seal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cronus_crypto::measure;
    use cronus_devices::gpu::GpuDevice;
    use cronus_devices::{endorse_device, vendor_keypair, SimDevice};
    use cronus_mos::hal::DeviceHal;
    use cronus_sim::tzpc::DeviceId;
    use cronus_sim::StreamId;

    fn sample_signed_report(sm: &SecureMonitor) -> SignedReport {
        let gpu = GpuDevice::gtx2080(DeviceId::new(1), StreamId::new(1));
        let vendor = vendor_keypair("nvidia");
        let endorsement = endorse_device(&vendor, gpu.rot_public());
        let hal = DeviceHal::Gpu(gpu);
        let report = AttestationReport {
            mos_id: MosId(2),
            mos_digest: measure("mos-image", b"cuda-mos"),
            mos_version: "v3".into(),
            enclaves: vec![(Eid::new(MosId(2), 1).unwrap(), measure("manifest", b"m"))],
            devtree_digest: measure("devtree", b"dt"),
            device: hal.attest_device(),
            vendor: "nvidia".into(),
            device_endorsement: endorsement,
        };
        let signature = sm.sign_report(&report.digest());
        SignedReport {
            report,
            atk_public: sm.atk_public(),
            atk_endorsement: sm.atk_endorsement(),
            signature,
        }
    }

    fn verifier(sm: &SecureMonitor) -> ClientVerifier {
        let mut v = ClientVerifier::new(sm.platform_public());
        v.add_vendor("nvidia", vendor_keypair("nvidia").public());
        v
    }

    #[test]
    fn honest_report_verifies() {
        let sm = SecureMonitor::new("platform");
        let signed = sample_signed_report(&sm);
        verifier(&sm)
            .verify(&signed, &Expectations::default())
            .unwrap();
    }

    #[test]
    fn expectations_checked() {
        let sm = SecureMonitor::new("platform");
        let signed = sample_signed_report(&sm);
        let v = verifier(&sm);
        let good = Expectations {
            mos_digest: Some(signed.report.mos_digest),
            enclaves: signed.report.enclaves.clone(),
            devtree_digest: Some(signed.report.devtree_digest),
        };
        v.verify(&signed, &good).unwrap();

        let bad_mos = Expectations {
            mos_digest: Some(measure("mos-image", b"other")),
            ..Default::default()
        };
        assert!(matches!(
            v.verify(&signed, &bad_mos).unwrap_err(),
            AttestationError::MosDigestMismatch { .. }
        ));

        let bad_enclave = Expectations {
            enclaves: vec![(Eid::new(MosId(2), 99).unwrap(), measure("manifest", b"m"))],
            ..Default::default()
        };
        assert!(matches!(
            v.verify(&signed, &bad_enclave).unwrap_err(),
            AttestationError::EnclaveMeasurementMismatch { .. }
        ));

        let bad_dt = Expectations {
            devtree_digest: Some(measure("devtree", b"tampered")),
            ..Default::default()
        };
        assert!(matches!(
            v.verify(&signed, &bad_dt).unwrap_err(),
            AttestationError::DevtreeMismatch { .. }
        ));
    }

    #[test]
    fn tampered_report_rejected() {
        let sm = SecureMonitor::new("platform");
        let mut signed = sample_signed_report(&sm);
        signed.report.mos_version = "vEVIL".into();
        assert_eq!(
            verifier(&sm)
                .verify(&signed, &Expectations::default())
                .unwrap_err(),
            AttestationError::BadReportSignature
        );
    }

    #[test]
    fn wrong_platform_rejected() {
        let sm = SecureMonitor::new("platform");
        let evil = SecureMonitor::new("evil-platform");
        let signed = sample_signed_report(&evil);
        assert_eq!(
            verifier(&sm)
                .verify(&signed, &Expectations::default())
                .unwrap_err(),
            AttestationError::BadAtkEndorsement
        );
    }

    #[test]
    fn fabricated_accelerator_rejected() {
        // A device whose key is NOT endorsed by the claimed vendor.
        let sm = SecureMonitor::new("platform");
        let mut signed = sample_signed_report(&sm);
        let fake_vendor = vendor_keypair("fabricator");
        signed.report.device_endorsement =
            endorse_device(&fake_vendor, signed.report.device.rot_public);
        // Re-sign so only the endorsement is wrong.
        signed.signature = sm.sign_report(&signed.report.digest());
        assert_eq!(
            verifier(&sm)
                .verify(&signed, &Expectations::default())
                .unwrap_err(),
            AttestationError::BadVendorEndorsement
        );
    }

    #[test]
    fn unknown_vendor_rejected() {
        let sm = SecureMonitor::new("platform");
        let mut signed = sample_signed_report(&sm);
        signed.report.vendor = "unheard-of".into();
        signed.signature = sm.sign_report(&signed.report.digest());
        assert!(matches!(
            verifier(&sm)
                .verify(&signed, &Expectations::default())
                .unwrap_err(),
            AttestationError::UnknownVendor(_)
        ));
    }

    #[test]
    fn local_attestation_happy_path() {
        let sm = SecureMonitor::new("platform");
        let secret = [9u8; 32];
        let la = LocalAttestation {
            challenger: Eid::new(MosId(1), 1).unwrap(),
            attested: Eid::new(MosId(2), 1).unwrap(),
            nonce: 777,
        };
        let measurement = measure("manifest", b"gpu-enclave");
        let req_tag = la.make_request_tag(&secret);
        let (seal, tag) = la.answer(&secret, &req_tag, measurement, &sm).unwrap();
        assert!(la.verify(&secret, measurement, &seal, &tag, &sm));
    }

    #[test]
    fn local_attestation_rejects_forged_request() {
        let sm = SecureMonitor::new("platform");
        let la = LocalAttestation {
            challenger: Eid::new(MosId(1), 1).unwrap(),
            attested: Eid::new(MosId(2), 1).unwrap(),
            nonce: 1,
        };
        let wrong_secret = [1u8; 32];
        let req_tag = la.make_request_tag(&wrong_secret);
        // The attested side holds a different secret.
        assert!(la.answer(&[2u8; 32], &req_tag, Digest::ZERO, &sm).is_none());
    }

    #[test]
    fn local_attestation_rejects_substituted_enclave() {
        // After a crash, a malicious mOS substitutes an enclave with the same
        // eid but a different measurement/secret; verification fails.
        let sm = SecureMonitor::new("platform");
        let secret = [9u8; 32];
        let la = LocalAttestation {
            challenger: Eid::new(MosId(1), 1).unwrap(),
            attested: Eid::new(MosId(2), 1).unwrap(),
            nonce: 3,
        };
        let honest = measure("manifest", b"honest");
        let evil = measure("manifest", b"evil");
        let req_tag = la.make_request_tag(&secret);
        // The substituted enclave doesn't know secret_dhke; simulate it
        // sealing with the right monitor but wrong secret.
        let (seal, tag) = la.answer(&secret, &req_tag, evil, &sm).unwrap();
        assert!(!la.verify(&secret, honest, &seal, &tag, &sm));
    }

    #[test]
    fn local_attestation_rejects_other_machine() {
        let sm = SecureMonitor::new("platform");
        let remote = SecureMonitor::new("remote-machine");
        let secret = [9u8; 32];
        let la = LocalAttestation {
            challenger: Eid::new(MosId(1), 1).unwrap(),
            attested: Eid::new(MosId(2), 1).unwrap(),
            nonce: 4,
        };
        let m = measure("manifest", b"x");
        let req_tag = la.make_request_tag(&secret);
        let (seal, tag) = la.answer(&secret, &req_tag, m, &remote).unwrap();
        // Verifier checks against the local monitor: not co-located => fail.
        assert!(!la.verify(&secret, m, &seal, &tag, &sm));
    }
}
