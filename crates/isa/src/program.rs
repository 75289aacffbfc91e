//! Program images: text plus initial data memory.

use crate::instr::Instruction;

/// An executable image: a text segment of decoded instructions and an
/// initial word-addressed data segment.
///
/// Addresses are in *words*. Instruction addresses index `text`, data
/// addresses index the data memory (which the interpreter and simulator
/// grow to `data_words` on load).
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    text: Vec<Instruction>,
    data: Vec<u32>,
    /// Total data memory size in words (≥ `data.len()`).
    data_words: usize,
}

impl Program {
    /// Creates a program from a text segment and initial data image.
    ///
    /// The data memory is sized to `data_words` words; the initial image in
    /// `data` occupies its start and the rest is zero-filled. If
    /// `data_words` is smaller than `data.len()` it is raised to fit.
    #[must_use]
    pub fn new(text: Vec<Instruction>, data: Vec<u32>, data_words: usize) -> Self {
        let data_words = data_words.max(data.len()).max(1);
        Program { text, data, data_words }
    }

    /// The instruction at word address `pc`, if in range.
    #[must_use]
    pub fn fetch(&self, pc: u32) -> Option<Instruction> {
        self.text.get(pc as usize).copied()
    }

    /// The text segment.
    #[must_use]
    pub fn text(&self) -> &[Instruction] {
        &self.text
    }

    /// The initial data image (prefix of data memory).
    #[must_use]
    pub fn data(&self) -> &[u32] {
        &self.data
    }

    /// Total data memory size in words.
    #[must_use]
    pub fn data_words(&self) -> usize {
        self.data_words
    }

    /// Number of instructions in the text segment.
    #[must_use]
    pub fn len(&self) -> usize {
        self.text.len()
    }

    /// Returns `true` if the text segment is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.text.is_empty()
    }

    /// Materializes the full data memory (initial image + zero fill).
    #[must_use]
    pub fn initial_memory(&self) -> Vec<u32> {
        let mut mem = self.data.clone();
        mem.resize(self.data_words, 0);
        mem
    }
}

/// Magic word heading a serialized program image ("R2D3" in ASCII).
pub const IMAGE_MAGIC: u32 = 0x5232_4433;

impl Program {
    /// Serializes the program into a flat word image:
    /// `[magic, text_len, data_len, data_words, text…, data…]`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::IsaError::ImmOutOfRange`] if an instruction cannot be
    /// encoded (a `Jal` offset outside its field).
    pub fn to_words(&self) -> Result<Vec<u32>, crate::IsaError> {
        let mut out = Vec::with_capacity(4 + self.text.len() + self.data.len());
        out.push(IMAGE_MAGIC);
        out.push(self.text.len() as u32);
        out.push(self.data.len() as u32);
        out.push(self.data_words as u32);
        for instr in &self.text {
            out.push(crate::encode::encode(*instr)?);
        }
        out.extend_from_slice(&self.data);
        Ok(out)
    }

    /// Deserializes a program from a word image produced by
    /// [`to_words`](Program::to_words).
    ///
    /// # Errors
    ///
    /// Returns [`crate::IsaError::DecodeInvalid`] for a bad magic word, a
    /// truncated image, or an undecodable instruction word.
    pub fn from_words(words: &[u32]) -> Result<Program, crate::IsaError> {
        let bad = || crate::IsaError::DecodeInvalid(words.first().copied().unwrap_or(0));
        if words.len() < 4 || words[0] != IMAGE_MAGIC {
            return Err(bad());
        }
        let text_len = words[1] as usize;
        let data_len = words[2] as usize;
        let data_words = words[3] as usize;
        let need = 4 + text_len + data_len;
        if words.len() != need {
            return Err(bad());
        }
        let text = words[4..4 + text_len]
            .iter()
            .map(|w| crate::encode::decode(*w))
            .collect::<Result<Vec<_>, _>>()?;
        let data = words[4 + text_len..].to_vec();
        Ok(Program::new(text, data, data_words))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_is_zero_filled() {
        let p = Program::new(vec![Instruction::Halt], vec![7, 8], 5);
        assert_eq!(p.initial_memory(), vec![7, 8, 0, 0, 0]);
    }

    #[test]
    fn data_words_raised_to_fit_image() {
        let p = Program::new(vec![], vec![1, 2, 3], 1);
        assert_eq!(p.data_words(), 3);
        assert!(p.is_empty());
    }

    #[test]
    fn word_image_roundtrip() {
        let p = crate::kernels::gemv(6, 6, 3).program().clone();
        let words = p.to_words().unwrap();
        assert_eq!(Program::from_words(&words).unwrap(), p);
    }

    #[test]
    fn word_image_rejects_corruption() {
        let p = Program::new(vec![Instruction::Halt], vec![1], 2);
        let mut words = p.to_words().unwrap();
        // Bad magic.
        let mut bad = words.clone();
        bad[0] = 0;
        assert!(Program::from_words(&bad).is_err());
        // Truncated.
        words.pop();
        assert!(Program::from_words(&words).is_err());
        // Empty.
        assert!(Program::from_words(&[]).is_err());
    }

    #[test]
    fn fetch_in_and_out_of_range() {
        let p = Program::new(vec![Instruction::Nop, Instruction::Halt], vec![], 1);
        assert_eq!(p.fetch(1), Some(Instruction::Halt));
        assert_eq!(p.fetch(2), None);
        assert_eq!(p.len(), 2);
    }
}
